"""The benchmark's workloads: README-style ``lkllt`` command lists.

n, p, b, d, beta, h and the grids are the sizes the benchmark is defined
at; only ``--reps`` and ``--trials`` are scaled, so that one pass over a
workload's commands fits several times into one measured run.  ``{seed}``
is replaced by the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    key: str                 # names the command in reports and checks
    argv: tuple[str, ...]    # lkllt arguments; "{seed}" marks the seed slot

    @property
    def metric(self) -> str:
        """Name of the command's end-to-end time in the report."""
        return f"{self.key}_s"

    def args(self, seed: int) -> list[str]:
        return [a.replace("{seed}", str(seed)) for a in self.argv]

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.argv)


def _cmd(key: str, line: str) -> Command:
    return Command(key, tuple(line.split()))


ER_ISO = _cmd("er_iso", "er iso --n 2000 --p 0.0005 --reps 7000 --seed {seed}")
ER_TRI = _cmd("er_tri", "er tri --n 64 --p 0.125 --reps 6000 --seed {seed}")
RGG_D1 = _cmd("rgg_d1", "rgg --b 0.2 --d 1 --lambda-grid 50:200:x2 --reps 3000 --seed {seed}")
RGG_D2 = _cmd("rgg_d2", "rgg --b 0.2 --d 2 --lambda-grid 50:100:x2 --reps 500 --seed {seed}")
# Exhausts the branch-and-bound node budget and exits 2 on every seed tried;
# each run reports it as a known defect (checks.known_defect) until the program
# stops failing it.
RGG_PROBE = _cmd(
    "rgg_probe", "rgg --b 0.2 --d 2 --lambda-grid 200:200:x2 --reps 200 --seed {seed}"
)
BOUNDS_ER_TRI = _cmd(
    "bounds_er_tri", "bounds --model er-tri --n 12 --p 0.25 --reps 2200 --seed {seed}"
)
BOUNDS_ER_ISO = _cmd(
    "bounds_er_iso", "bounds --model er-iso --n 6 --p 0.5 --reps 22000 --seed {seed}"
)
BOUNDS_CW = _cmd(
    "bounds_cw", "bounds --model cw --n 100000 --beta 0.5 --reps 1400000 --seed {seed}"
)
TP = _cmd("tp", "tp --mu 0 --sigma2-grid 100:100000000:x10")
CW_RATE = _cmd("cw_rate", "cw rate --beta 0.5 --h 0.1 --n-grid 64:1048576:x2")
VERIFY_LK = _cmd("verify_lk", "verify lk --trials 500 --seed {seed}")
ER_ORACLE = _cmd("er_oracle", "er oracle --n 7 --p 0.5 --stat isolated")

ALL_COMMANDS = (
    ER_ISO, ER_TRI, RGG_D1, RGG_D2, BOUNDS_ER_TRI, BOUNDS_ER_ISO, BOUNDS_CW,
    TP, CW_RATE, VERIFY_LK, ER_ORACLE,
)
COMMAND_METRICS = tuple(c.metric for c in ALL_COMMANDS)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int              # LKLLT_THREADS for every command
    commands: tuple[Command, ...]
    # Run once per measured run, before the passes, and left out of the
    # pass times: commands whose time or outcome swings with the seed.
    once: tuple[Command, ...] = ()


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        # _bnb_mis cost is heavy-tailed: rgg_d2 takes 2 to 6 s depending on the seed
        Workload("mc-rates", 1, (ER_ISO, ER_TRI, RGG_D1), (RGG_D2, RGG_PROBE)),
        Workload("pair-bounds", 1, (BOUNDS_ER_TRI, BOUNDS_ER_ISO, BOUNDS_CW)),
        Workload("exact-laws", 1, (TP, CW_RATE, VERIFY_LK, ER_ORACLE)),
        # LKLLT_THREADS=2 is the only setting under which map_blocks uses its pool.
        Workload("mc-threads", 2, (ER_ISO, ER_TRI, BOUNDS_ER_TRI)),
    )
}
