"""Cross-trace campaign backend: byte-identical to per-cell batched.

The acceptance bar of the ``"crosstrace"`` backend: a campaign routed
through :func:`execute_supercell` — traces and variants solved together
as whole-block array programs — must produce summaries (and JSONL run
lines) *equal* to the per-cell ``"batched"`` execution, on real
closed-loop traces including multi-actor density variants. The
:meth:`OfflineEvaluator.evaluate_many` entry point gets the same
treatment against one-trace-at-a-time evaluation.
"""

import json
from dataclasses import replace

import pytest

from repro import OfflineEvaluator, build_scenario
from repro.batch import Campaign, CampaignRunner, ParamVariant
from repro.core.evaluator import presample_trace
from repro.core.parameters import ZhuyiParams
from repro.perception.noise import PerceptionNoise


def run_campaign(backend, tmp_path, **kwargs):
    campaign = Campaign(backend=backend, **kwargs)
    out = tmp_path / f"{backend}.jsonl"
    result = CampaignRunner(workers=1).run(campaign, out=out)
    assert not result.failures()
    lines = out.read_text().splitlines()
    # Drop the header (carries the backend tag) and footer (wall clock):
    # every run line must match byte for byte.
    return [line for line in lines if '"kind": "run"' in line]


@pytest.mark.slow
class TestCampaignParity:
    def test_multi_variant_campaign_byte_identical(self, tmp_path):
        base = ZhuyiParams()
        grid = dict(
            scenarios=("cut_in", "cut_out"),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant("c1_09", replace(base, c1=0.9)),
                ParamVariant("c2_09", replace(base, c2=0.9)),
            ),
            stride=0.25,
        )
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert batched == crosstrace
        assert len(batched) == 6

    def test_density_variant_campaign_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in_dense4",),
            seeds=(0, 1),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant(
                    "tight", replace(ZhuyiParams(), c1=0.85, c2=0.9)
                ),
            ),
            stride=0.25,
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert scalar == batched == crosstrace

    def test_run_lines_carry_real_estimates(self, tmp_path):
        lines = run_campaign(
            "crosstrace",
            tmp_path,
            scenarios=("cut_in",),
            seeds=(0,),
            fprs=(30.0,),
            stride=0.25,
        )
        (record,) = [json.loads(line) for line in lines]
        assert record["max_fpr"] is not None
        assert record["error"] is None


@pytest.mark.slow
class TestNoisyCampaignParity:
    """Noisy campaigns stay byte-identical across every backend.

    Counter-based draws make evaluation-time noise a pure function of
    (cell-derived seed, timestamp bits, actor id) — see
    ``repro/core/rng.py`` — so enabling it must not open any gap
    between the scalar reference loop, the per-cell batched kernels and
    the cross-trace supercell path.
    """

    NOISE = PerceptionNoise(miss_rate=0.1, position_noise=0.25, seed=5)

    def test_noisy_all_backends_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(10.0, 30.0),
            stride=0.25,
            noise=self.NOISE,
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert scalar == batched == crosstrace
        assert len(batched) == 8

    def test_noisy_dense_variant_byte_identical(self, tmp_path):
        grid = dict(
            scenarios=("cut_in_dense4",),
            seeds=(0,),
            fprs=(30.0,),
            variants=(
                ParamVariant("paper"),
                ParamVariant(
                    "tight", replace(ZhuyiParams(), c1=0.85, c2=0.9)
                ),
            ),
            stride=0.25,
            noise=self.NOISE,
        )
        scalar = run_campaign("scalar", tmp_path, **grid)
        batched = run_campaign("batched", tmp_path, **grid)
        crosstrace = run_campaign("crosstrace", tmp_path, **grid)
        assert scalar == batched == crosstrace

    def test_noisy_shard_merge_matches_unsharded(self, tmp_path):
        from repro.batch import CampaignResult

        campaign = Campaign(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(30.0,),
            stride=0.25,
            noise=self.NOISE,
        )
        whole = tmp_path / "whole.jsonl"
        CampaignRunner(workers=1).run(campaign, out=whole)
        parts = []
        for index in range(2):
            part = tmp_path / f"part{index}.jsonl"
            CampaignRunner(workers=1).run(campaign, out=part, shard=(index, 2))
            parts.append(CampaignResult.load_jsonl(part))
        merged = tmp_path / "merged.jsonl"
        CampaignResult.merge(parts).save_jsonl(merged)
        pick = lambda path: [
            line
            for line in path.read_text().splitlines()
            if '"kind": "run"' in line
        ]
        assert pick(whole) == pick(merged)

    def test_noisy_kill_resume_matches_uninterrupted(self, tmp_path):
        campaign = Campaign(
            scenarios=("cut_in", "cut_out"),
            seeds=(0, 1),
            fprs=(30.0,),
            stride=0.25,
            noise=self.NOISE,
        )
        whole = tmp_path / "whole.jsonl"
        CampaignRunner(workers=1).run(campaign, out=whole)

        class Killed(RuntimeError):
            pass

        def kill_hook(done, total, summary):
            if done >= 2:
                raise Killed()

        killed = tmp_path / "killed.jsonl"
        with pytest.raises(Killed):
            CampaignRunner(workers=1).run(campaign, kill_hook, out=killed)
        resumed = CampaignRunner(workers=1).resume(killed)
        assert resumed.is_complete
        # Identical run lines — the resumed noise draws key on tick
        # times and actor ids, not on where the first attempt died.
        pick = lambda path: [
            line
            for line in path.read_text().splitlines()
            if '"kind": "run"' in line
        ]
        assert pick(whole) == pick(killed)

    def test_noisy_evaluate_many_matches_single(self):
        noise = PerceptionNoise(miss_rate=0.2, position_noise=0.4, seed=3)
        traces, samples = [], []
        for name in ("cut_in", "cut_out"):
            scenario = build_scenario(name, seed=0)
            trace = scenario.run(fpr=30.0)
            assert not trace.has_collision, name
            traces.append(trace)
            samples.append(presample_trace(trace, 0.25, noise=noise))

        block = OfflineEvaluator(
            stride=0.25, backend="crosstrace", noise=noise
        ).evaluate_many(traces, samples=samples)
        for trace, trace_samples, series in zip(traces, samples, block):
            alone = OfflineEvaluator(
                stride=0.25, backend="batched", noise=noise
            ).evaluate(trace, samples=trace_samples)
            assert len(series.ticks) == len(alone.ticks)
            for tick_a, tick_b in zip(series.ticks, alone.ticks):
                assert tick_a.time == tick_b.time
                assert dict(tick_a.actor_latencies) == dict(
                    tick_b.actor_latencies
                )
                assert dict(tick_a.camera_estimates) == dict(
                    tick_b.camera_estimates
                )


@pytest.mark.slow
class TestEvaluateMany:
    def test_matches_one_trace_at_a_time(self):
        traces, samples, roads = [], [], []
        for name in ("cut_in", "cut_out"):
            scenario = build_scenario(name, seed=0)
            trace = scenario.run(fpr=30.0)
            assert not trace.has_collision, name
            traces.append(trace)
            samples.append(presample_trace(trace, 0.25))
            roads.append(scenario.road)

        # evaluate_many stacks roadless jobs; evaluate one at a time as
        # the reference with the standard batched backend.
        block = OfflineEvaluator(
            stride=0.25, backend="crosstrace"
        ).evaluate_many(traces, samples=samples)
        for trace, trace_samples, series in zip(traces, samples, block):
            alone = OfflineEvaluator(stride=0.25, backend="batched").evaluate(
                trace, samples=trace_samples
            )
            assert len(series.ticks) == len(alone.ticks)
            for tick_a, tick_b in zip(series.ticks, alone.ticks):
                assert tick_a.time == tick_b.time
                assert dict(tick_a.actor_latencies) == dict(
                    tick_b.actor_latencies
                )
                assert dict(tick_a.camera_estimates) == dict(
                    tick_b.camera_estimates
                )
