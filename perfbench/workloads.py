"""Fixed job grids of the flaghom benchmark and the seed rule that picks from them.

A job is the argument list of one ``flaghom`` CLI call, without
``--format json``, which the runner appends.  Each workload has fixed jobs,
which every seed runs, and pools, from each of which the seed picks one group
of jobs.  The seed also fixes the order in which the jobs run.

Pools hold partial thetas of one (family, rank).  Their cost is close to
uniform within a pool (Weyl enumeration or the number of covers dominates),
so the seed changes which answers are checked much more than it changes the
time a pass takes.

Seeds: ``DEV_SEED`` is the one to use while writing a change.  Check a claim
once more on ``HELDOUT_SEED``, which the change must not have been tuned on.

Left out on purpose: E6, whose ``homology`` alone takes about 43 s, and A7,
with |W| = 40320.  A6 (|W| = 5040) and D5 (|W| = 1920) carry enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEV_SEED = 1
HELDOUT_SEED = 7919

Job = tuple[str, ...]

# Number of positive roots, which is the length of the longest element of W.
_TOP_LENGTH = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def top_length(family: str, rank: int) -> int:
    return _TOP_LENGTH[family](rank)


def proper_thetas(rank: int) -> list[str]:
    """Every theta other than the empty and the full set, as 1-based lists."""
    return [
        ",".join(map(str, theta))
        for size in range(1, rank)
        for theta in itertools.combinations(range(1, rank + 1), size)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple[Job, ...]
    pools: tuple[tuple[tuple[Job, ...], ...], ...]
    # Per-layer metrics this workload must drive above zero (checked by the self-test).
    must_drive: tuple[str, ...]

    def jobs(self, seed: int) -> list[Job]:
        """The seed's jobs in the seed's order."""
        rng = random.Random(seed)
        jobs = list(self.fixed)
        for pool in self.pools:
            jobs.extend(rng.choice(pool))
        rng.shuffle(jobs)
        return jobs

    def every_job(self) -> list[Job]:
        """Every job any seed can run; each needs a golden answer."""
        jobs = list(self.fixed)
        for pool in self.pools:
            for group in pool:
                jobs.extend(group)
        return jobs


def job_id(job: Job) -> str:
    return " ".join(job)


def flag_homology(full: list[tuple[str, int]], partial: list[tuple[str, int]]) -> Workload:
    fixed = tuple(
        (command, family, str(rank))
        for family, rank in full
        for command in ("homology", "orientability")
    )
    pools = tuple(
        tuple(
            tuple((command, family, str(rank), "--theta", theta)
                  for command in ("homology", "orientability"))
            for theta in proper_thetas(rank)
        )
        for family, rank in partial
    )
    return Workload(
        "flag-homology",
        "homology (Z, degree <= 3) and orientability; full Weyl enumeration takes "
        "about 98% of each job, coefficients and SNF about 1%",
        fixed,
        pools,
        ("rootsys.builds", "weyl.elements", "weyl.covers_calls", "weyl.reps_calls",
         "coeffs.coefficient_calls", "coeffs.route_evals", "homology.cells",
         "homology.snf_calls", "homology.snf_entries", "homology.topcell_s",
         "cli.output_bytes"),
    )


def _coeffs_job(family: str, rank: int, theta: str | None) -> Job:
    job = ("coeffs", family, str(rank))
    if theta is not None:
        job += ("--theta", theta)
    return job + ("--max-degree", str(top_length(family, rank)))


def deep_covers(full: list[tuple[str, int]], partial: list[tuple[str, int]]) -> Workload:
    fixed = tuple(_coeffs_job(family, rank, None) for family, rank in full)
    pools = tuple(
        tuple((_coeffs_job(family, rank, str(i)),) for i in range(1, rank + 1))
        for family, rank in partial
    )
    return Workload(
        "deep-covers",
        "coeffs up to the top length, so every cover in W^theta gets a kappa report; "
        "kappa_report, bruhat_covers and JSON rendering dominate, enumeration does not",
        fixed,
        pools,
        ("rootsys.builds", "weyl.elements", "weyl.covers_calls", "weyl.covers_pairs",
         "coeffs.kappa_report_calls", "coeffs.coefficient_calls", "coeffs.route_evals",
         "cli.output_bytes"),
    )


def theta_sweep(sweeps: list[tuple[str, int]], z2: list[tuple[str, int]]) -> Workload:
    fixed = tuple(("sweep", family, str(rank)) for family, rank in sweeps)
    pools = tuple(
        tuple(
            (("homology", family, str(rank), "--ring", "z2", "--theta", theta),)
            for theta in proper_thetas(rank)
        )
        for family, rank in z2
    )
    return Workload(
        "theta-sweep",
        "sweep reads one full W 2^rank times (coset scans, top-cell covers, mod-2 "
        "Poincare); shows a change that makes full-W queries slower",
        fixed,
        pools,
        ("weyl.elements", "weyl.reps_calls", "weyl.reps_scanned", "weyl.covers_calls",
         "coeffs.route_evals", "homology.topcell_s", "homology.poincare_s",
         "cli.output_bytes"),
    )


WORKLOADS = {
    w.name: w
    for w in (
        flag_homology(
            [("A", 5), ("A", 6), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2)],
            [("A", 5), ("D", 5), ("F", 4)],
        ),
        deep_covers(
            [("A", 4), ("A", 5), ("B", 4), ("D", 4), ("G", 2)],
            [("A", 5), ("B", 4)],
        ),
        theta_sweep(
            [("A", 5), ("B", 4), ("C", 5), ("D", 5), ("F", 4)],
            [("B", 4), ("F", 4)],
        ),
    )
}
