"""Exit 1 unless each file holds exactly json.dumps(json.loads(text),
indent=2): the stdlib's format, which `cfl solve` (manifest.json) and
`cfl estimate` (estimate.json) write, the manifest piece by piece as its
encoder yields them.  A writer that drifts from that format, in a
separator, an indent, a float or a byte of the encoding, fails here.

    python .github/check_json_format.py <file.json>...
"""

import json
import sys

failed = False
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text != json.dumps(json.loads(text), indent=2):
        print(f"{path}: not the bytes of json.dumps(..., indent=2)")
        failed = True
sys.exit(1 if failed else 0)
