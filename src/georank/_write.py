"""The one writer of every CSV table and JSON payload georank writes.

`csv_text` equals a header line plus one `",".join("%.17g" % v ...)` line
per row, and `json_text(obj)` equals `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` with each ndarray read as its `tolist()`, byte
for byte; each lays out a whole table or array with one format string.

Grid tables repeat most of their values (coordinate columns, ranks under
the grid's symmetries), so `_fill` formats each distinct bit pattern once
when at most half the values are distinct; the bytes are unchanged.
"""

import json

import numpy as np

# values read to decide whether a table repeats enough to format distinct
# values only; a full sort costs 8 % of an all-distinct write
_SAMPLE = 2048


def csv_text(names, table):
    """Header `names` joined by commas, then the rows of the 2-D `table`,
    every value as "%.17g" (an integer value prints as an integer)."""
    a = np.asarray(table, dtype=float)
    m, k = a.shape
    return ",".join(names) + "\n" + _fill(
        lambda slot: (",".join([slot] * k) + "\n") * m, "%.17g", a)


def json_text(obj):
    return _layout(obj, "\n") + "\n"


def _fill(layout, item, values):
    """`layout(item) % tuple(values.ravel().tolist())`, where `layout(slot)`
    is the text with one `slot` per value in row-major order.

    Values are keyed by their bit pattern, so -0.0 and 0.0, and NaNs with
    different payloads, stay apart.  When a strided sample of whole rows
    shows at most half of them distinct, each distinct value is formatted
    once and `layout("%s")` is filled with those strings."""
    v = values.ravel()
    if v.itemsize in (1, 2, 4, 8):          # an unsigned type of that width
        key = f"u{v.itemsize}"
        # sorted and counted: np.unique takes 20 times as long on a sample
        sample = np.sort(values[::values.size // _SAMPLE + 1].ravel()
                         .view(key))
        distinct = 1 + np.count_nonzero(sample[1:] != sample[:-1])
        if 2 * distinct <= sample.size:
            uniq, inv = np.unique(v.view(key), return_inverse=True)
            # no item format writes a newline
            text = ((item + "\n") * uniq.size) % tuple(
                uniq.view(v.dtype).tolist())
            strings = np.array(text.split("\n"), dtype=object)
            return layout("%s") % tuple(strings[inv].tolist())
    return layout(item) % tuple(v.tolist())


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
        def layout(slot):
            if node.ndim == 2:
                slot = ("[" + inner + "  " + ("," + inner + "  ").join(
                    [slot] * node.shape[1]) + inner + "]")
            return ("[" + inner + ("," + inner).join([slot] * node.shape[0])
                    + nl + "]")
        # %r of a tolist() value is float.__repr__ / int.__repr__, as in json
        return _fill(layout, "%r", node)
    # json escapes the newlines inside strings: every raw newline is layout
    return json.dumps(node, indent=2, sort_keys=True,
                      default=np.ndarray.tolist).replace("\n", nl)
