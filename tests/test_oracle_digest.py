"""Pin the exact `oracle` and `check-split` output on the fixtures.

`hesspairs oracle` prints what the fast paths report next to the
independent oracles (the ordering search under echelon tests, the flag
intersections, subspace enumeration), and `check-split` prints the
verdict on a split candidate.  The sha256 of every exit code, stdout and
stderr is pinned: `oracle` on every file in `tests/fixtures/`,
`check-split` on every fixture with a truth block, and `check-split` on
one fixture whose truth flag has two subspaces swapped.  A change to
either subcommand, or to the oracles they print, that alters a single
byte of output fails here.
"""

import hashlib
import json
from pathlib import Path

from hesspairs.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# sha256 over every (command, file name, exit code, stdout, stderr) below,
# recorded with one echelon loop per inclusion chain; the shared loop of
# the two chains must reproduce it byte for byte.
DIGEST = "52ed7bc52d1c300fd877225082ada0d00794da39c45986b62289f55e5604b824"


def _run(digest, capsys, argv, name):
    code = main(argv)
    out, err = capsys.readouterr()
    digest.update(f"{argv[0]} {name} {code}\0{out}\0{err}\0".encode())
    return code


def test_oracle_and_check_split_digest(tmp_path, capsys):
    files = sorted(FIXTURES.glob("*.json"))
    assert len(files) == 10
    digest = hashlib.sha256()
    for path in files:
        _run(digest, capsys, ["oracle", str(path)], path.name)
    with_truth = [p for p in files if "truth" in json.loads(p.read_text())]
    assert len(with_truth) == 5
    codes = [_run(digest, capsys, ["check-split", str(p)], p.name) for p in with_truth]
    doc = json.loads((FIXTURES / "pair_split_gf7.json").read_text())
    flag = doc["truth"]["flag"]
    flag[0], flag[1] = flag[1], flag[0]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    codes.append(_run(digest, capsys, ["check-split", str(corrupted)], corrupted.name))
    assert codes == [0] * 5 + [1]
    assert digest.hexdigest() == DIGEST
