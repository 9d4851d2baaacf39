"""The one writer of every CSV table and JSON payload georank writes.

`csv_text` equals a header line plus one `",".join("%.17g" % v ...)` line
per row, and `json_text(obj)` equals `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` with each ndarray read as its `tolist()`, byte
for byte; each lays out a whole table or array as a head, the values with
one separator within a row, one between rows and one after the last.

Grid tables repeat most of their values (coordinate columns, ranks under
the grid's symmetries), so `_fill` formats each distinct bit pattern once
when at most half the values are distinct, and joins those strings with
their separators in one pass; the bytes are unchanged.
"""

import json

import numpy as np

# values read to decide whether a table repeats enough to format distinct
# values only; a full sort costs 8 % of an all-distinct write
_SAMPLE = 2048


def csv_text(names, table):
    """Header `names` joined by commas, then the rows of the 2-D `table`,
    every value as "%.17g" (an integer value prints as an integer)."""
    return _fill(np.asarray(table, dtype=float), "%.17g",
                 ",".join(names) + "\n", ",", "\n", "\n")


def json_text(obj):
    return _layout(obj, "\n") + "\n"


def _fill(values, item, head, sep, row_end, last):
    """`head`, then the rows of the 2-D `values`, each value formatted by
    `item`, with `sep` between the values of a row, `row_end` between rows
    and `last` after the final row ("" for no rows).

    Values are keyed by their bit pattern, so -0.0 and 0.0, and NaNs with
    different payloads, stay apart.  When a strided sample of whole rows
    shows at most half of them distinct, each distinct value is formatted
    once, one argsort of the keys maps every value to its distinct string,
    and the text is one "".join of a gather from the table of each
    distinct string followed by each separator.  Otherwise the layout with
    one `item` per value is filled by one `%`."""
    m, k = values.shape
    v = values.ravel()
    if v.itemsize in (1, 2, 4, 8):          # an unsigned type of that width
        keys = v.view(f"u{v.itemsize}")
        # sorted and counted: np.unique takes 20 times as long on a sample
        sample = np.sort(values[::values.size // _SAMPLE + 1].ravel()
                         .view(keys.dtype))
        distinct = 1 + np.count_nonzero(sample[1:] != sample[:-1])
        if 2 * distinct <= sample.size:
            order = np.argsort(keys)
            keys = keys[order]
            first = np.empty(keys.size, dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            # slot = 3 * (index of the value's distinct string) + separator
            slot = np.empty(keys.size, dtype=np.intp)
            slot[order] = 3 * (np.cumsum(first) - 1)
            slot = slot.reshape(m, k)
            slot[:, -1] += 1
            slot[-1, -1] += 1
            uniq = keys[first].view(v.dtype)
            # no item format writes a newline
            strings = ((item + "\n") * uniq.size % tuple(uniq.tolist())
                       ).split("\n")[:-1]
            table = (np.array(strings, dtype=object)[:, None]
                     + np.array([sep, row_end, last], dtype=object))
            return head + "".join(table.ravel()[slot.ravel()].tolist())
    layout = row_end.join([sep.join([item] * k)] * m) + last if m else ""
    return head + layout % tuple(v.tolist())


def _layout(node, nl):
    """JSON of `node` laid out as json.dumps(indent=2) does at the depth
    whose line break and indent are `nl`."""
    inner = nl + "  "
    if isinstance(node, dict) and node and all(isinstance(k, str)
                                               for k in node):
        return ("{" + ",".join(inner + json.dumps(k) + ": "
                               + _layout(node[k], inner)
                               for k in sorted(node)) + nl + "}")
    if (isinstance(node, np.ndarray) and node.dtype.kind in "fiu"
            and node.ndim in (1, 2) and node.size
            and np.isfinite(node).all()):
        # %r of a tolist() value is float.__repr__ / int.__repr__, as in json
        if node.ndim == 1:
            return _fill(node[:, None], "%r", "[" + inner, "", "," + inner,
                         nl + "]")
        row = inner + "  "
        return _fill(node, "%r", "[" + inner + "[" + row, "," + row,
                     inner + "]," + inner + "[" + row, inner + "]" + nl + "]")
    # json escapes the newlines inside strings: every raw newline is layout
    return json.dumps(node, indent=2, sort_keys=True,
                      default=np.ndarray.tolist).replace("\n", nl)
