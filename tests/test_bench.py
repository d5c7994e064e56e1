import hashlib
import statistics

import pytest

from splitdecode import bench, protocol
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


def config_for(bench_model, mode, users=2, lam=0, out_tokens=8, repetitions=3):
    return BenchConfig(
        mode=mode,
        users=users,
        in_tokens=6,
        out_tokens=out_tokens,
        lam=lam,
        model=bench_model,
        repetitions=repetitions,
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

    def test_lambda_is_what_every_user_prefills(self, monkeypatch):
        # one tagged token has vocab_size candidates, the authentic among
        # them, so a record's lambda can be at most vocab_size - 1
        tiny = ModelConfig(n_layers=1, n_heads=1, d_model=16, head_dim=16, vocab_size=16,
                           max_seq=16, seed=2)
        with pytest.raises(ValueError, match="vocab_size"):
            BenchConfig("spd", 1, 4, 4, 16, tiny)
        counts, prefill = [], bench.user_prefill

        def counting(party, *args):
            prefill(party, *args)
            counts.append(len(party.vps.prompts))

        monkeypatch.setattr(bench, "user_prefill", counting)
        record = run_mode(BenchConfig("spd", 1, 4, 4, 15, tiny))
        assert record.lam == 15 and counts == [16] * 3

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

    def test_outputs_pinned(self, bench_model):
        # the bench's counterpart of test_demo_transcript_pinned: a change
        # to any token, frame or byte count of these runs moves the digest
        records = [run_mode(config_for(bench_model, mode, lam=lam))
                   for mode, lam in (("spd", 0), ("spd", 3), ("no_protection", 0))]
        assert [(r.bytes_per_token, r.weight_copies) for r in records] == [
            (1065.875, 1), (1021.25, 1), (0.0, 1)]
        data = repr([(r.tokens, r.bytes_per_token, r.weight_copies) for r in records])
        digest = hashlib.blake2b(data.encode(), digest_size=16).hexdigest()
        assert digest == "a20b8788053255b49d9f249a6d6d2e3f"

    def test_spd_latency_nondecreasing_in_lambda(self, bench_model):
        # one wall-clock ordering, made robust to machine-speed phases: the
        # lambdas run interleaved in five passes, and each lambda's record
        # compares with the next lambda's from the same pass, which ran
        # within a second of it (medians taken across passes can come from
        # different phases); each record decodes as many rounds as max_seq
        # allows, six times over: with three, machine-speed phases still
        # reordered some medians
        lams = (0, 7, 15)
        out_tokens = bench_model.max_seq - config_for(bench_model, "spd").in_tokens
        records = {lam: [] for lam in lams}
        for _ in range(5):
            for lam in lams:
                records[lam].append(run_mode(config_for(bench_model, "spd", users=1, lam=lam,
                                                        out_tokens=out_tokens, repetitions=6)))
        for lo, hi in zip(lams, lams[1:]):
            ratios = [b.ms_per_token_med / a.ms_per_token_med
                      for a, b in zip(records[lo], records[hi])]
            assert statistics.median(ratios) >= 1, (lo, hi, ratios)
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
