"""Byte pin of the command line: a fixed, seeded batch of in-process ``gh``
calls whose stdout and exit code must hash to the digests stored in
``cli_bytes.json``.

The batch covers every distance subcommand on spaces of 1-3 points from
``verify.random_pointed_space``, on both backends, plus one small verify
run and rational documents that each break one metric axiom.  A refactor
that keeps values and reports must keep every digest; a mismatch names the
argv that changed.  After a deliberate change of output,
rewrite the digests with ``PYTHONPATH=src python tests/test_cli_bytes.py``
and say in the change log which argvs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from ghlab.cli import main
from ghlab.metric_core import space_to_json
from ghlab.verify import random_pointed_space

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_bytes.json")
SHAPES = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)]


def _scalar(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _pointed_doc(p) -> dict:
    return space_to_json(p.space, p.base)


def _glued_doc(rng: random.Random, x, y) -> dict:
    """Correspondence gluing of x and y at a seeded eta >= dis/2, written out
    from the gluing formula rather than by the library's builder."""
    nx, ny = x.n, y.n
    pairs = {(i, rng.randrange(ny)) for i in range(nx)} | {(rng.randrange(nx), j) for j in range(ny)}
    dis = max(abs(x.space.d(a, c) - y.space.d(b, e)) for a, b in pairs for c, e in pairs)
    eta = rng.choice((dis / 2, dis, 2 * dis)) if dis > 0 else Fraction(1, rng.randint(1, 4))
    n = nx + ny
    host = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a < nx and b < nx:
                host[a][b] = x.space.d(a, b)
            elif a >= nx and b >= nx:
                host[a][b] = y.space.d(a - nx, b - nx)
            else:
                i, j = (a, b - nx) if a < nx else (b, a - nx)
                host[a][b] = min(x.space.d(i, c) + eta + y.space.d(e, j) for c, e in pairs)
    return {
        "host": {
            "points": [f"X:{p}" for p in x.space.points] + [f"Y:{q}" for q in y.space.points],
            "dist": [[_scalar(v) for v in row] for row in host],
        },
        "embedX": list(range(nx)),
        "embedY": list(range(nx, n)),
        "X": _pointed_doc(x),
        "Y": _pointed_doc(y),
    }


def _space_doc(rng: random.Random, n: int) -> dict:
    return space_to_json(random_pointed_space(rng, n, n).space)


def _weights(rng: random.Random, n: int) -> list:
    raw = [rng.randint(0, 3) for _ in range(n)]
    raw[rng.randrange(n)] += 1
    return [_scalar(Fraction(w, sum(raw))) for w in raw]


def batch() -> list:
    """[(case id, argv with document names, {name: document})], seeded."""
    rng = random.Random(20261018)
    shapes = iter(SHAPES * 8)
    cases = []

    def add(cid: str, argv: list, docs: dict) -> None:
        cases.append((cid, argv, docs))

    for backend in ("float", "rational"):
        flags = ["--backend", backend]
        for k in range(2):
            n = 2 + k
            doc = {"space": _space_doc(rng, n), "a": [0], "b": list(range(1, n))}
            add(f"{backend}/hausdorff/{k}", ["hausdorff", "--in", "in"] + flags, {"in": doc})
            n = 3 + k
            doc = {"space": _space_doc(rng, n), "mu": _weights(rng, n), "nu": _weights(rng, n)}
            add(f"{backend}/w1/{k}", ["w1", "--in", "in"] + flags, {"in": doc})
        for k in range(5):
            nx, ny = next(shapes)
            x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
            r = ["-r", str(_scalar(Fraction(rng.randint(1, 8), rng.choice((1, 2, 3)))))]
            docs = {"x": _pointed_doc(x), "y": _pointed_doc(y)}
            pair = ["--x", "x", "--y", "y"]
            glued = {"g": _glued_doc(rng, x, y)}
            add(f"{backend}/delta-r/{k}", ["delta-r", "--glued", "g"] + r + flags, glued)
            passage = {"p": {"gluing": _glued_doc(rng, x, y)}}
            add(f"{backend}/extent/{k}", ["extent", "--passage", "p"] + r + flags, passage)
            add(f"{backend}/Delta-r/{k}", ["Delta-r"] + pair + r + flags, docs)
            add(f"{backend}/inframetric/{k}", ["inframetric"] + pair + flags, docs)
            heuristic = flags + ["--mode", "heuristic", "--seed", str(k)]
            if k < 2:
                add(f"{backend}/Delta-r-heuristic/{k}", ["Delta-r"] + pair + r + heuristic, docs)
            if k < 1:
                add(f"{backend}/inframetric-heuristic/{k}", ["inframetric"] + pair + heuristic, docs)
        for k, (nx, ny) in enumerate(((1, 2), (2, 1))):
            x, y = random_pointed_space(rng, nx, nx), random_pointed_space(rng, ny, ny)
            docs = {"x": _pointed_doc(x), "y": _pointed_doc(y)}
            add(f"{backend}/propinquity/{k}", ["propinquity", "--x", "x", "--y", "y"] + flags, docs)
        add(f"{backend}/verify", ["verify", "--suite", "inframetric", "--cases", "3"] + flags, {})
    _add_ingestion_errors(add)
    return cases


def _add_ingestion_errors(add) -> None:
    """Rational documents that break one metric axiom each, written with p/q
    entries: the report names the clause's points and prints the input's
    own values."""
    flags = ["--backend", "rational"]
    good = {"points": ["u", "v"], "dist": [[0, "3/5"], ["3/5", 0]], "basepoint": "u"}
    diagonal = {"points": ["a", "b"], "dist": [[0, "1/2"], ["1/2", "1/3"]]}
    add("rational/error/diagonal", ["hausdorff", "--in", "in"] + flags,
        {"in": {"space": diagonal, "a": [0], "b": [1]}})
    symmetry = {"points": ["a", "b", "c"], "basepoint": 0,
                "dist": [[0, "2/3", 1], ["2/3", 0, "3/4"], [1, "4/5", 0]]}
    add("rational/error/symmetry", ["Delta-r", "--x", "x", "--y", "y", "-r", "1"] + flags,
        {"x": symmetry, "y": good})
    negative = {"points": ["a", "b", "c"], "basepoint": "a",
                "dist": [[0, "1/6", "-5/7"], ["1/6", 0, "1/6"], ["-5/7", "1/6", 0]]}
    add("rational/error/negative", ["inframetric", "--x", "x", "--y", "y"] + flags,
        {"x": good, "y": negative})
    # d(a, d) > d(a, b) + d(b, d) is the first violation in scan order;
    # d(b, d) > d(b, c) + d(c, d) comes later
    triangle = {"points": ["a", "b", "c", "d"],
                "dist": [[0, "1/7", "1/5", "7/6"], ["1/7", 0, "1/3", "9/10"],
                         ["1/5", "1/3", 0, "1/2"], ["7/6", "9/10", "1/2", 0]]}
    add("rational/error/triangle", ["w1", "--in", "in"] + flags,
        {"in": {"space": triangle, "mu": ["1/2", "1/2", 0, 0], "nu": [0, 0, "1/3", "2/3"]}})
    separation = {"points": ["a", "b"], "dist": [[0, 0], [0, 0]], "basepoint": 0}
    add("rational/error/separation", ["propinquity", "--x", "x", "--y", "y"] + flags,
        {"x": separation, "y": good})
    host = {"points": ["X:u", "X:v", "Y:u", "Y:v"],
            "dist": [[0, "3/5", "1/4", "3/2"], ["3/5", 0, "1/3", "1/4"],
                     ["1/4", "1/3", 0, "3/5"], ["3/2", "1/4", "3/5", 0]]}
    glued = {"host": host, "embedX": [0, 1], "embedY": [2, 3], "X": good, "Y": good}
    add("rational/error/glued-host", ["delta-r", "--glued", "g", "-r", "1"] + flags, {"g": glued})
    add("rational/error/passage-host", ["extent", "--passage", "p", "-r", "1"] + flags,
        {"p": {"gluing": glued}})


def digest_of(argv: list, docs: dict, workdir: str) -> str:
    """sha256 of the exit code and stdout of one call, documents written
    under workdir and their names in argv replaced by the paths."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    real = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_cli_bytes_match_the_stored_digests(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("GHLAB_"):
            monkeypatch.delenv(key)
    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    cases = batch()
    assert [cid for cid, _, _ in cases] == list(stored)
    changed = [
        f"{cid}: gh {' '.join(argv)}"
        for cid, argv, docs in cases
        if digest_of(argv, docs, str(tmp_path)) != stored[cid]
    ]
    assert not changed, "output bytes changed for:\n" + "\n".join(changed)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = {cid: digest_of(argv, docs, workdir) for cid, argv, docs in batch()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
