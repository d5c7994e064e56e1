import statistics

import pytest

from splitdecode import protocol
from splitdecode.bench import (
    CSV_HEADER,
    BenchConfig,
    bench_csv,
    bench_prompts,
    run_mode,
    sweep,
)
from splitdecode.model import ModelConfig, greedy_decode, init_model


@pytest.fixture(scope="module")
def bench_model():
    return ModelConfig(
        n_layers=2, n_heads=2, d_model=32, head_dim=16, vocab_size=64, max_seq=48, seed=5
    )


def config_for(bench_model, mode, users=2, lam=0, out_tokens=8):
    return BenchConfig(
        mode=mode,
        users=users,
        in_tokens=6,
        out_tokens=out_tokens,
        lam=lam,
        model=bench_model,
        repetitions=3,
        seed=3,
    )


class TestConfigValidation:
    def test_bad_mode(self, bench_model):
        with pytest.raises(ValueError):
            config_for(bench_model, "turbo")

    def test_bad_users(self, bench_model):
        with pytest.raises(ValueError):
            config_for(bench_model, "spd", users=0)

    def test_too_few_repetitions(self, bench_model):
        with pytest.raises(ValueError):
            BenchConfig("spd", 1, 6, 8, 0, bench_model, repetitions=2)

    def test_tokens_must_fit(self, bench_model):
        with pytest.raises(ValueError):
            BenchConfig("spd", 1, 40, 40, 0, bench_model)

    def test_prompts_deterministic_and_eos_free(self, bench_model):
        cfg = config_for(bench_model, "spd")
        a, b = bench_prompts(cfg), bench_prompts(cfg)
        assert a == b
        assert all(t != bench_model.eos_token for p in a for t in p)


class TestRunMode:
    def test_single_user_modes_agree(self, bench_model):
        tokens = {}
        for mode in ("no_protection", "full_isolation", "spd"):
            record = run_mode(config_for(bench_model, mode, users=1))
            tokens[mode] = record.tokens[0]
        assert tokens["no_protection"] == tokens["full_isolation"] == tokens["spd"]

    def test_multi_user_modes_agree(self, bench_model):
        outputs = [
            run_mode(config_for(bench_model, mode, users=3)).tokens
            for mode in ("no_protection", "full_isolation", "spd")
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_outputs_match_monolithic_decode(self, bench_model):
        cfg = config_for(bench_model, "no_protection", users=2)
        record = run_mode(cfg)
        weights = init_model(bench_model)
        for user, prompt in enumerate(bench_prompts(cfg)):
            expected = greedy_decode(weights, prompt, cfg.out_tokens - 1, stop_at_eos=False)
            assert record.tokens[user] == expected

    @pytest.mark.parametrize("users", [1, 4])
    def test_weight_copy_counts(self, bench_model, users):
        for mode, expected in (("no_protection", 1), ("full_isolation", users), ("spd", 1)):
            record = run_mode(config_for(bench_model, mode, users=users))
            assert record.weight_copies == expected, mode

    def test_spd_reports_wire_bytes(self, bench_model):
        record = run_mode(config_for(bench_model, "spd", users=2))
        assert record.bytes_per_token > 0
        record = run_mode(config_for(bench_model, "no_protection", users=2))
        assert record.bytes_per_token == 0

    def test_spd_latency_nondecreasing_in_lambda(self, bench_model):
        # one wall-clock ordering, made robust to machine-speed phases: the
        # lambdas run interleaved, five times each, and their medians compare
        lams = (0, 7, 15)
        records = {lam: [] for lam in lams}
        for _ in range(5):
            for lam in lams:
                records[lam].append(run_mode(config_for(bench_model, "spd", users=1, lam=lam)))
        meds = [statistics.median(r.ms_per_token_med for r in records[lam]) for lam in lams]
        assert meds == sorted(meds)
        # the authentic stream is unchanged by the decoys
        assert records[7][0].tokens[0] == records[0][0].tokens[0]
        assert records[15][0].tokens[0] == records[0][0].tokens[0]

    def test_every_spd_token_passes_the_gate(self, bench_model, monkeypatch):
        decisions = []
        gate = protocol.controller_gate

        def counting_gate(ctrl, outbound):
            decision = gate(ctrl, outbound)
            decisions.append((outbound.session_id, decision.passed))
            return decision

        monkeypatch.setattr(protocol, "controller_gate", counting_gate)
        cfg = config_for(bench_model, "spd", users=2, lam=3)
        run_mode(cfg)
        streams = cfg.users * (cfg.lam + 1)
        assert len({sid for sid, _ in decisions}) == streams
        assert len(decisions) == streams * cfg.out_tokens * cfg.repetitions
        assert all(passed for _, passed in decisions)


class TestSweep:
    def test_rows_sorted_and_formatted(self, bench_model):
        configs = [
            config_for(bench_model, mode, users=u)
            for mode in ("spd", "no_protection")
            for u in (2, 1)
        ]
        records = sweep(configs)
        keys = [(r.mode, r.users) for r in records]
        assert keys == sorted(keys)
        text = bench_csv(records)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_HEADER.split(","))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep([])

    def test_per_token_latency_roughly_flat_in_output_length(self, bench_model):
        short = run_mode(config_for(bench_model, "spd", users=2, out_tokens=8))
        long = run_mode(config_for(bench_model, "spd", users=2, out_tokens=24))
        # per-round cost grows mildly with context length; it must not
        # scale anywhere near linearly with the output count (3x here)
        assert long.ms_per_token_med <= 2.0 * max(short.ms_per_token_med, 1e-6)
