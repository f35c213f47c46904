"""Pin the exact `generate` output on a fixed list of commands.

Generation promises reproducible output for a given seed: the same command
must print the same bytes on every run, under every hash seed.  The list
covers `split-form` and `reducible-sum` over GF(7), GF(101), GF(2^31-1) and
Q, with and without `--conjugate`, `tridiagonal-form` at shapes and seeds
that are accepted within a few dozen attempts, one shape that no
tridiagonal pair has, and one request that exhausts a small attempt budget.
The sha256 of every exit code, stdout and stderr is pinned, so a change to
the generators that alters a single byte of output fails here.
"""

import hashlib

from hesspairs.cli import main

P31 = str(2**31 - 1)

# (field arguments, --dims, --inner-dims, --eigs-a, --eigs-a-star)
SHAPES = [
    (["--field", "GF", "--p", "7"], "1,2,1", "1,1,1;1,2,1", "5,0,2", "1,6,3"),
    (["--field", "GF", "--p", "101"], "2,3,2,1", "1,1,1,1;2,1,1,1", "7,0,50,100", "1,2,3,4"),
    (["--field", "GF", "--p", P31], "1,1,1,1", "1,1,1,1;1,1,1,1", "1,2,3,2147483646", "0,7,11,1000003"),
    (["--field", "Q"], "1,2,1", "1,1,1;1,1,2", "1/2,-3,7", "0,-5/3,4"),
]

# (field arguments, --dims, --eigs-a, --eigs-a-star, seed, extra arguments)
TRIDIAGONAL = [
    (["--field", "GF", "--p", "5"], "1,1", "0,1", "2,3", 0, []),
    (["--field", "GF", "--p", "5"], "1,1", "0,1", "2,3", 1, ["--conjugate"]),
    (["--field", "GF", "--p", "11"], "1,1,1", "0,1,2", "0,1,2", 0, []),
    (["--field", "GF", "--p", "11"], "1,1,1", "0,1,2", "0,1,2", 1, []),
    (["--field", "GF", "--p", "7"], "2,2", "0,1", "2,3", 0, []),
    (["--field", "GF", "--p", "7"], "2,2", "0,1", "2,3", 1, ["--conjugate"]),
    (["--field", "GF", "--p", "5"], "1,2,1", "0,1,2", "0,1,2", 2, []),
    # No tridiagonal pair has an asymmetric shape: refused before any draw.
    (["--field", "GF", "--p", "101"], "2,1", "0,1", "0,1", 0, []),
    # (θ0 − θ3)/(θ1 − θ2) differs between the sides: every attempt fails.
    (["--field", "GF", "--p", "101"], "1,1,1,1", "0,1,2,4", "0,1,2,3", 0, ["--max-attempts", "20"]),
]


def _commands():
    commands = []
    for field, dims, inner, va, vb in SHAPES:
        for k, conj in enumerate(([], ["--conjugate"])):
            common = [*field, f"--eigs-a={va}", f"--eigs-a-star={vb}", "--seed", str(10 + k), *conj]
            commands.append(["generate", "split-form", "--dims", dims, *common])
            commands.append(["generate", "reducible-sum", f"--inner-dims={inner}", *common])
    for field, dims, va, vb, seed, extra in TRIDIAGONAL:
        commands.append([
            "generate", "tridiagonal-form", *field, "--dims", dims,
            f"--eigs-a={va}", f"--eigs-a-star={vb}", "--seed", str(seed), *extra,
        ])
    return commands


# sha256 over every (command, exit code, stdout, stderr) of the list above.
DIGEST = "d5d30adcead08ef1907607665921145c8a1e118460edd5b47756a4d86196d699"


def test_generate_output_digest(capsys):
    commands = _commands()
    assert len(commands) == 25
    digest = hashlib.sha256()
    codes = []
    for argv in commands:
        code = main(argv)
        codes.append(code)
        out, err = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    assert codes == [0] * 23 + [1, 1]
    assert digest.hexdigest() == DIGEST
