"""The one writer of every CSV table and JSON payload georank writes.

`csv_text` equals a header line plus one `",".join("%.17g" % v ...)` line
per row, and `json_text(obj)` equals `json.dumps(obj, indent=2,
sort_keys=True) + "\\n"` with each ndarray read as its `tolist()`, byte
for byte; each lays out a whole table or array with one format string.
"""

import json

import numpy as np


def csv_text(names, table):
    """Header `names` joined by commas, then the rows of the 2-D `table`,
    every value as "%.17g" (an integer value prints as an integer)."""
    a = np.asarray(table, dtype=float)
    m, k = a.shape
    row_fmt = ",".join(["%.17g"] * k) + "\n"
    return ",".join(names) + "\n" + (row_fmt * m) % tuple(a.ravel().tolist())


def json_text(obj):
    return _layout(obj, "\n") + "\n"


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
        item = "%r"
        if node.ndim == 2:
            item = ("[" + inner + "  " + ("," + inner + "  ").join(
                [item] * node.shape[1]) + inner + "]")
        return ("[" + inner + ("," + inner).join([item] * node.shape[0])
                + nl + "]") % tuple(node.ravel().tolist())
    # json escapes the newlines inside strings: every raw newline is layout
    return json.dumps(node, indent=2, sort_keys=True,
                      default=np.ndarray.tolist).replace("\n", nl)
