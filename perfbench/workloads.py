"""The benchmark's workloads: scenario documents and run sizes.

``--seed`` becomes the scenario's ``seed`` field, which drives every
property's probe draws (and the sizes of the random matrices in ``l1``
and ``l2``). The operator and frame seeds stay at the README's values,
so at the default seed ``small-dense`` is exactly the README scenario.
README.md in this directory gives the reason for each workload.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

DEFAULT_SEED = 42
K_SEED = 5
FRAME_SEED = 9

# The properties that read the scenario's instance; l1 and l2 draw their
# own matrices and ignore it.
INSTANCE_PROPERTIES = (
    "l3",
    "l4",
    "l5",
    "l6",
    "canonical-char",
    "t1",
    "t2",
    "t4",
    "complement-parseval",
    "kdaggerk",
)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    atoms: int
    weights: Tuple[float, ...]
    rank: int
    properties: Optional[Tuple[str, ...]]  # None runs every property
    trials_per_call: int  # trials in one timed `kframelab verify` call
    replay_trials: int  # replays cover every property on trials 0 .. replay_trials - 1

    def scenario_doc(self, seed: int) -> dict:
        return {
            "dim": self.dim,
            "atoms": self.atoms,
            "weights": list(self.weights),
            "k_spec": {"kind": "random-rank", "rank": self.rank, "seed": K_SEED},
            "frame_spec": {"kind": "generate-parseval-k", "seed": FRAME_SEED},
            "tolerances": {},
            "trials": self.trials_per_call,
            "seed": seed,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-dense",
            dim=3,
            atoms=7,
            weights=(0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75),
            rank=2,
            properties=None,
            trials_per_call=20,
            replay_trials=60,
        ),
        Workload(
            name="large-lapack",
            dim=64,
            atoms=512,
            weights=tuple(0.25 + 0.25 * ((7 * i) % 12) for i in range(512)),
            rank=32,
            properties=INSTANCE_PROPERTIES,
            trials_per_call=1,
            replay_trials=4,
        ),
        Workload(
            name="unique-dual",
            dim=6,
            atoms=4,
            weights=(0.5, 2.0, 1.0, 1.5),
            rank=4,
            properties=INSTANCE_PROPERTIES,
            trials_per_call=20,
            replay_trials=20,
        ),
    )
}
