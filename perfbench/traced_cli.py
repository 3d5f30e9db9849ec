"""`python -m treeca` with spans: traced_cli.py SPANS_FILE VERB ARGS...

Wraps the library names the command line module calls, runs the command
line's main, and appends the spans to SPANS_FILE, one JSON list per line,
even when main raises.
"""

import json
import sys

import treeca.cli

from spans import Tracer, install_in_cli

tracer = Tracer()
install_in_cli(tracer)
try:
    code = treeca.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(list(span)) + "\n")
sys.exit(code)
