"""Golden closed-loop trace digests: the simulator's output, pinned.

Every campaign, store bundle and fuzz fitness is a function of the bytes
the closed-loop simulator records. Parity tests compare two routes
through the *same* simulator, so a change to the simulator itself (actor
stepping, perception sampling, occlusion, the RNG) could shift every
trace without any of them noticing. These digests pin the recorded trace
columns — ``TraceArrays.from_trace`` — plus the collision events for a
small fixed set of runs: the dense trio, the fast cut-out (also with
miss sampling on), a curved dense variant and one fuzz genome.

A deliberate behaviour change re-records the digests in the same change
and says so; a refactor must leave every one of them untouched.
"""

import hashlib

import numpy as np
import pytest

from repro.perception.detection import DetectionModel
from repro.scenarios.catalog import build_scenario
from repro.scenarios.fuzzed import register_fuzzed
from repro.store.arrays import TraceArrays

_ARRAY_FIELDS = (
    "times",
    "ego",
    "actor_masks",
    "actor_columns",
    "mode_codes",
    "camera_codes",
    "camera_values",
    "camera_offsets",
)
_TUPLE_FIELDS = ("actor_order", "actor_offsets", "mode_vocab", "camera_vocab")


def trace_digest(trace) -> str:
    """sha256 over a trace's columns (bit patterns) and collisions."""
    arrays = TraceArrays.from_trace(trace)
    digest = hashlib.sha256()
    for name in _ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(arrays, name))
        digest.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        digest.update(column.tobytes())
    for name in _TUPLE_FIELDS:
        digest.update(f"{name}:{getattr(arrays, name)!r}".encode())
    for event in arrays.collisions:
        digest.update(f"hit:{event.time.hex()}:{event.actor_id!r}".encode())
    return digest.hexdigest()


#: The pinned genome, written out here rather than read from a fuzz
#: archive (search runs rewrite those): a five-actor cut-out that runs
#: its full duration, where a search's collision genomes end within a
#: second.
FUZZ_PARAMS = {
    "actor_count": 5,
    "bail_out_gap": 33.380804,
    "cruise_before": 3.712945,
    "duration": 1.823615,
    "ego_speed_mph": 47.066612,
    "lead_gap": 14.554586,
    "queue_offset": 77.773362,
}


def fuzz_genome() -> str:
    """Register the pinned genome; its scenario name."""
    name = register_fuzzed("cut_out", FUZZ_PARAMS)
    assert name == "fuzzed_cut_out_93140e1a45"
    return name


#: case id -> (scenario name or resolver, jitter seed, detection model).
#: ``None`` keeps the scenario default (occlusion on, position noise).
CASES = {
    "cut_in_dense8": ("cut_in_dense8", 3, None),
    "cut_out_dense8": ("cut_out_dense8", 3, None),
    "vehicle_following_dense8": ("vehicle_following_dense8", 3, None),
    "cut_out_fast": ("cut_out_fast", 0, None),
    "cut_out_fast_misses": (
        "cut_out_fast",
        1,
        DetectionModel(position_noise=0.08, miss_rate=0.2, occlusion=True),
    ),
    "challenging_cut_in_curved_dense4": (
        "challenging_cut_in_curved_dense4",
        0,
        None,
    ),
    "fuzz_genome": (fuzz_genome, 0, None),
}

GOLDEN = {
    "cut_in_dense8": (
        "1e11b679e260e1a2c0d1ea1d3c41e5c3"
        "1c40eefb11b70ef7b6edeb6fbf5d2539"
    ),
    "cut_out_dense8": (
        "401f2a928788c2dc2753dd20f9de52cd"
        "c2b26e7274a79ad43363d7bd52942ec7"
    ),
    "vehicle_following_dense8": (
        "c85066bb11941e72aeba45aaeb3192b5"
        "cfca2b8a2507e6b063238a9a40f28b0f"
    ),
    "cut_out_fast": (
        "d26936a6ff376964d202f37517b665c4"
        "deb181d6012f7ce2e640f255aa309df2"
    ),
    "cut_out_fast_misses": (
        "b9a9f6dcce00542e5e6819240275c031"
        "1c026500be0d6f4db7d0067d48bb7bce"
    ),
    "challenging_cut_in_curved_dense4": (
        "d1ac11764264cab364080871a38f03ba"
        "ccebef7b864b6b6abeabf6711dcd5484"
    ),
    "fuzz_genome": (
        "2d4ab27cc2bb7f83c71253b0b6476fa8"
        "6fb61c89d64429e456cd66a95dc5278a"
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_golden(case):
    scenario, seed, detection = CASES[case]
    name = scenario() if callable(scenario) else scenario
    trace = build_scenario(name, seed=seed).run(
        fpr=30.0, detection_model=detection
    )
    assert trace_digest(trace) == GOLDEN[case]


def test_digest_sees_a_single_ulp():
    trace = build_scenario("cut_in", seed=0).run(fpr=30.0)
    before = trace_digest(trace)
    step = trace.steps[len(trace.steps) // 2]
    actor_id = next(iter(step.actors))
    state = step.actors[actor_id]
    step.actors[actor_id] = type(state)(
        position=state.position,
        heading=float(np.nextafter(state.heading, np.inf)),
        speed=state.speed,
        accel=state.accel,
    )
    assert trace_digest(trace) != before
