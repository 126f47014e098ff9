"""The CLI's stdout at indices 2-4, pinned by sha256.

cli_digests.json holds one digest per command line: `counts` and
`counts --diff` in both formats, and, for every catalog symbol, both groups
and indices 2, 3 and 4, `enumerate` in both formats and `verify` at the
default coset budget.  Output at these indices must not change; only a
deliberate change of output regenerates the file:

    PYTHONPATH=src python tests/test_cli_digests.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from tetgroups import catalog
from tetgroups.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")


def commands():
    for fmt in ("table", "json"):
        yield ["counts", "--format", fmt]
        yield ["counts", "--diff", "--format", fmt]
    for entry in catalog():
        for group in ("full", "kleinian"):
            for n in (2, 3, 4):
                for fmt in ("table", "json"):
                    yield ["enumerate", "--id", entry.id, "--group", group,
                           "--index", str(n), "--format", fmt]
                yield ["verify", "--id", entry.id, "--group", group,
                       "--index", str(n)]


def stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def record():
    return {" ".join(argv): stdout_digest(argv) for argv in commands()}


def test_cli_stdout_matches_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = record()
    assert got.keys() == pinned.keys()
    changed = [cmd for cmd in got if got[cmd] != pinned[cmd]]
    assert not changed, f"stdout changed for {len(changed)} commands: {changed[:5]}"


if __name__ == "__main__":
    print(json.dumps(record(), indent=1))
