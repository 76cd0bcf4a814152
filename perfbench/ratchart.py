"""Seeded rational-chart algebroids for the ``rational-chart`` workload.

The frame is e_i = g d/dx_i on R^n with g = 1/L and L = c + a*x1 linear.
The structure functions are written down by hand from the bracket of
vector fields, [g d_i, g d_j] = g (d_i g) d_j - g (d_j g) d_i, that is

    [e_i, e_j] = (d_i g) e_j - (d_j g) e_i,    d_i g = -a_i / L^2,

so the engine never produces its own inputs.  Where L != 0 the anchor is
injective and the data is TR^n in a rescaled frame, a Lie algebroid: both
``check-axioms`` and ``verify-courant standard`` pass a priori.  The broken
variant doubles one nonzero bracket coefficient, so rho([e_i, e_j]) and
[rho e_i, rho e_j] differ by a nonzero field: anchor compatibility and C4
(anchor is a morphism) must fail, with their residues rendered.

The seed picks c and a.  L stays in x1: a second variable makes every gcd
multivariate and a rank-2 file 5x slower, and with L in x3 instead of x1 a
rank-3 file took 7 to 19 s instead of 2 to 4 s, which would make a pass's
cost depend more on the seed than on the program.
"""

from __future__ import annotations

import random
from pathlib import Path

TASKS = ("check-axioms", "verify-courant standard")
# (label, algebroid name, rank, broken), in run order
SPECS = (
    ("rational_r2", "R2", 2, False),
    ("rational_r3", "R3", 3, False),
    ("rational_r3_broken", "R3bad", 3, True),
)


def _linear(c: int, a: list[int]) -> str:
    text = str(c)
    for i, ai in enumerate(a):
        if ai:
            text += f" {'+' if ai > 0 else '-'} {abs(ai)}*x{i + 1}"
    return text


def algebroid_text(name: str, c: int, a: list[int], broken: bool = False) -> str:
    """The ``.alg`` file of the frame g d/dx_i, g = 1/(c + a . x)."""
    rank = len(a)
    den = f"({_linear(c, a)})^2"
    lines = [
        f"# frame e_i = g d/dx_i, g = 1/({_linear(c, a)}); [e_i,e_j] = (d_i g) e_j - (d_j g) e_i",
        f"algebroid {name} {{",
        f"  base = [{', '.join(f'x{i + 1}' for i in range(rank))}];",
        f"  rank = {rank};",
    ]
    lines += [f"  anchor[{i + 1},x{i + 1}] = 1/({_linear(c, a)});" for i in range(rank)]
    scaled = False
    for i in range(rank):
        for j in range(i + 1, rank):
            # coefficient of e_i is -d_j g = a_j / L^2, of e_j is d_i g = -a_i / L^2
            coeffs = [(i, a[j]), (j, -a[i])]
            terms = []
            for k, num in coeffs:
                if num and broken and not scaled:
                    num, scaled = 2 * num, True
                if num:
                    terms.append(f"({num})/{den}*e{k + 1}")
            if terms:
                lines.append(f"  bracket[{i + 1},{j + 1}] = {' + '.join(terms)};")
    lines.append("}")
    lines += [f"task {task} {name};" for task in TASKS]
    return "\n".join(lines) + "\n"


def _random_linear(rng: random.Random, rank: int) -> tuple[int, list[int]]:
    a = [0] * rank
    a[0] = rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randint(1, 3), a


def write_inputs(directory: Path, seed: int) -> list[tuple[str, Path]]:
    """Write the seed's three inputs; return (label, path) in run order."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for label, name, rank, broken in SPECS:
        c, a = _random_linear(rng, rank)
        path = directory / f"{label}.alg"
        path.write_text(algebroid_text(name, c, a, broken), encoding="utf-8")
        out.append((label, path))
    return out
