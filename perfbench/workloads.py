"""Seeded job lists for the benchmark workloads.

Each job is one ``kacdepth`` CLI call on a fixed quiver shape.  The seed
applies a random isomorphism to every shape: it relabels the vertices,
reorders the arrows, and permutes the per-vertex flags (``--lam``,
``--bound``, ``--rank``) with the vertices.  Every field that ``digest``
keeps is invariant under such an isomorphism, so one pinned reference per
job checks every seed, while strata, shelling terms and row order change
with the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Oracle jobs above this many enumerated points are refused outright: the
# CLI guard is 2^24, and jobs near it run for minutes (one loop at rank 2
# with p=2, alpha=3 took 336 s).
LOAD_CAP = 1 << 20

SHAPES: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "a2": (2, ((0, 1),)),
    "loop1": (1, ((0, 0),)),
    "kron2": (2, ((0, 1),) * 2),
    "kron3": (2, ((0, 1),) * 3),
    "kron6": (2, ((0, 1),) * 6),
    "kron10": (2, ((0, 1),) * 10),
    "kron12": (2, ((0, 1),) * 12),
    "kron4_2loops": (2, ((0, 1),) * 4 + ((0, 0), (1, 1))),
    "triangle": (3, ((0, 1), (1, 2), (0, 2))),
    "doubled_triangle": (3, ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2))),
    "theta": (4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1))),
    "k4": (4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))),
    "doubled_k4": (4, tuple((i, j) for i in range(4) for j in range(i + 1, 4) for _ in range(2))),
}


@dataclass(frozen=True)
class Spec:
    """One CLI call before the seed is applied.

    ``est_s`` is the measured wall time of the job as its own process on a
    2-core x86-64 box with Python 3.11; the job timeout derives from it.
    """

    command: tuple[str, ...]
    shape: str | None
    est_s: float
    alpha: int | None = None
    primes: tuple[int, ...] = ()
    vectors: dict[str, tuple[int, ...]] = field(default_factory=dict)
    extra: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        parts = ["-".join(self.command), self.shape or "none"]
        if self.alpha is not None:
            parts.append(f"a{self.alpha}")
        if self.primes:
            parts.append("p" + ",".join(map(str, self.primes)))
        parts += [f"{k.lstrip('-')}{','.join(map(str, v))}" for k, v in self.vectors.items()]
        parts += [x.lstrip("-") for x in self.extra]
        return "/".join(parts)


def _kac(shape: str, alpha: int, est_s: float) -> Spec:
    return Spec(("kac",), shape, est_s, alpha=alpha)


WORKLOADS: dict[str, list[Spec]] = {
    "chain-dp": [
        _kac("kron12", 4, 3.9),
        _kac("kron10", 8, 1.5),
        _kac("doubled_k4", 3, 1.6),
        _kac("k4", 3, 0.17),
        _kac("k4", 6, 0.21),
        _kac("theta", 4, 0.15),
        _kac("theta", 6, 0.15),
        _kac("doubled_triangle", 5, 0.15),
        _kac("kron4_2loops", 3, 0.12),
        _kac("kron4_2loops", 6, 0.15),
    ],
    "ratfunc-limits": [
        Spec(("asymptotic",), "kron6", 0.75),
        Spec(("asymptotic",), "k4", 1.04),
        Spec(("asymptotic",), "theta", 0.33),
        Spec(("verify", "thm41"), "theta", 0.33),
        Spec(("shelling",), "kron6", 1.17),
        Spec(("shelling",), "doubled_triangle", 1.49),
        Spec(("rank-table",), None, 1.33, alpha=5, extra=("--g", "3")),
        Spec(("e-series",), "k4", 0.28, alpha=3, extra=("--mode", "zero-fiber", "--order", "10")),
        Spec(("e-series",), "k4", 0.13, alpha=2, extra=("--mode", "generic-fiber", "--order", "10")),
    ],
    "fiber-oracles": [
        Spec(("oracle", "orbit-count"), "triangle", 1.3, alpha=3, primes=(3,)),
        Spec(("oracle", "orbit-count"), "kron3", 0.72, alpha=3, primes=(3,)),
        Spec(("oracle", "orbit-count"), "kron2", 0.29, alpha=2, primes=(2, 3, 5, 7)),
        Spec(("oracle", "moment-fiber"), "kron2", 0.53, alpha=3, primes=(3,), vectors={"--rank": (1, 1)}),
        Spec(("oracle", "moment-fiber"), "triangle", 0.55, alpha=2, primes=(3,), vectors={"--lam": (1, 1, -2)}),
        Spec(("verify", "generic-fiber"), "a2", 0.5, alpha=2, primes=(13,), vectors={"--lam": (1, -1)}),
        Spec(("verify", "generic-fiber"), "kron2", 0.11, alpha=2, primes=(3,), vectors={"--lam": (1, -1)}),
        Spec(("verify", "exp-identity"), "triangle", 0.54, alpha=2, primes=(2, 3), vectors={"--bound": (1, 1, 1)}),
        Spec(("verify", "exp-identity"), "loop1", 1.39, alpha=2, primes=(2,), vectors={"--bound": (2,)}),
    ],
}


@dataclass(frozen=True)
class Job:
    """A spec with the seed's isomorphism applied."""

    spec: Spec
    quiver: dict | None  # quiver JSON, written to a file by the runner
    perm: tuple[int, ...]  # new label of each original vertex
    args: tuple[str, ...]  # CLI arguments after ``--quiver``
    load_unit: str | None
    load: int | None

    @property
    def id(self) -> str:
        return self.spec.id

    @property
    def timeout_s(self) -> float:
        return 5.0 + 5.0 * self.spec.est_s


def coords(arrows, rank) -> int:
    """Coordinates of the doubled quiver at this rank, as the fiber oracle counts them."""
    return sum(2 * rank[s] * rank[t] for s, t in arrows if rank[s] > 0 and rank[t] > 0)


def _load(spec: Spec, nvertices: int, arrows) -> tuple[str | None, int | None]:
    """Enumeration size of the job, from its inputs alone."""
    cmd, a = spec.command, spec.alpha
    if cmd == ("kac",):
        return "masks", 1 << len(arrows)
    if cmd == ("oracle", "orbit-count"):
        return "points", sum(p ** (a * len(arrows)) for p in spec.primes)
    if cmd in (("oracle", "moment-fiber"), ("verify", "generic-fiber")):
        rank = spec.vectors.get("--rank", (1,) * nvertices)
        return "points", sum(p ** (a * coords(arrows, rank)) for p in spec.primes)
    if cmd == ("verify", "exp-identity"):
        bound = spec.vectors["--bound"]
        ranks = _rank_vectors(bound)
        return "points", sum(p ** (a * coords(arrows, r)) for p in spec.primes for r in ranks)
    return None, None


def _rank_vectors(bound: tuple[int, ...]) -> list[tuple[int, ...]]:
    out = [()]
    for b in bound:
        out = [r + (x,) for r in out for x in range(b + 1)]
    return [r for r in out if any(r)]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs under the isomorphisms drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for spec in WORKLOADS[workload]:
        quiver, perm = None, ()
        if spec.shape is not None:
            n, arrows = SHAPES[spec.shape]
            perm = list(range(n))
            rng.shuffle(perm)
            order = list(range(len(arrows)))
            rng.shuffle(order)
            quiver = {
                "vertices": n,
                "arrows": [[perm[arrows[j][0]], perm[arrows[j][1]]] for j in order],
            }
            perm = tuple(perm)
        args: list[str] = []
        if spec.alpha is not None:
            args += ["--alpha", str(spec.alpha)]
        if spec.primes:
            args += ["--p", ",".join(map(str, spec.primes))]
        for flag, vec in spec.vectors.items():
            moved = [0] * len(vec)
            for i, v in enumerate(vec):
                moved[perm[i]] = v
            # "--lam=-1,1": a separate "-1,1" would parse as an option
            args.append(f"{flag}={','.join(map(str, moved))}")
        args += list(spec.extra)
        unit, load = None, None
        if spec.shape is not None:
            unit, load = _load(spec, *SHAPES[spec.shape])
        if unit == "points" and load > LOAD_CAP:
            raise ValueError(f"{spec.id}: {load} points exceeds the cap {LOAD_CAP}")
        jobs.append(Job(spec, quiver, perm, tuple(args), unit, load))
    return jobs


def _unpermute(vec, perm) -> list[int]:
    return [vec[perm[i]] for i in range(len(perm))]


def digest(report: dict, job: Job) -> dict:
    """The fields of a CLI report that no isomorphism of the quiver changes."""
    cmd = job.spec.command
    out: dict = {"ok": report["ok"]}
    if cmd == ("kac",):
        out.update(
            polynomial=report["polynomial"],
            tree_polynomial=report["tree_polynomial"],
            strata=len(report["census"]),
        )
    elif cmd == ("asymptotic",):
        out.update(A=report["A"], B=report["B"])
    elif cmd == ("verify", "thm41"):
        out.update(lhs=report["lhs"], rhs=report["rhs"], betti=report["betti"])
    elif cmd == ("shelling",):
        out.update(
            facets=report["facets"],
            terms=len(report["certificate"]),
            total=report["total"],
            single_denominator=report.get("single_denominator"),
        )
    elif cmd in (("rank-table",), ("e-series",)):
        out.update(rows=report["rows"])
    elif cmd == ("oracle", "orbit-count"):
        out.update(polynomial=report["polynomial"], rows=report["rows"])
    elif cmd == ("oracle", "moment-fiber"):
        out.update(rank=_unpermute(report["rank"], job.perm), rows=report["rows"])
    elif cmd == ("verify", "generic-fiber"):
        out.update(
            reports=[
                {k: r[k] for k in ("prime", "alpha", "fiber", "lhs", "rhs", "equal")}
                for r in report["reports"]
            ]
        )
    elif cmd == ("verify", "exp-identity"):
        out.update(
            reports=[
                {
                    "prime": r["prime"],
                    "equal": r["equal"],
                    "rows": sorted(
                        (dict(row, rank=_unpermute(row["rank"], job.perm)) for row in r["rows"]),
                        key=lambda row: row["rank"],
                    ),
                }
                for r in report["reports"]
            ]
        )
    else:
        raise ValueError(f"no digest for {cmd}")
    return out
