import hashlib
import json

import pytest

from splitdecode import cli, protocol
from splitdecode.cli import main
from splitdecode.config import ConfigError, load_run_config
from splitdecode.wire import ProtocolMessage, decode_token, encode_token


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_defaults_parse(self):
        cfg = load_run_config(None)
        assert cfg.model.d_model == cfg.model.n_heads * cfg.model.head_dim
        assert cfg.obfuscation.lambda_min <= cfg.obfuscation.lambda_max

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"modle": {}})
        with pytest.raises(ConfigError, match="modle"):
            load_run_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"model": {"n_layres": 2}})
        with pytest.raises(ConfigError, match="n_layres"):
            load_run_config(path)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"model": {"seed": 1}})
        cfg = load_run_config(path, seed=99)
        assert cfg.model.seed == 99
        assert cfg.bench and all(b.model.seed == 99 for b in cfg.bench)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_run_config(str(path))

    def test_invalid_model_values(self, tmp_path):
        path = write_config(tmp_path, {"model": {"d_model": 10}})
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_bench_section_is_the_sweep(self, tmp_path):
        path = write_config(tmp_path, {"bench": {"modes": ["spd"], "users": [1, 2],
                                                 "lambdas": [0, 3]}})
        cfg = load_run_config(path)
        assert [(b.mode, b.users, b.lam) for b in cfg.bench] == [
            ("spd", 1, 0), ("spd", 1, 3), ("spd", 2, 0), ("spd", 2, 3)
        ]

    # a value of the right key but the wrong type or range is a config
    # error (exit 2), never a traceback (exit 1 is resource exhaustion)
    @pytest.mark.parametrize("command,data", [
        ("demo", {"demo": {"max_tokens": "many"}}),
        ("demo", {"demo": {"user_id": 70000}}),
        ("demo", {"demo": {"ngram_order": 0}}),
        ("bench", {"bench": {"users": [1, "x"]}}),
        ("bench", {"bench": {"modes": ["bogus"]}}),
        ("bench", {"bench": {"repetitions": 2}}),
        ("bench", {"bench": {"lambdas": [-1]}}),
        ("bench", {"bench": {"modes": []}}),
        # an integer field takes no float, bool or numeric string
        ("demo", {"demo": {"max_tokens": 2.9}}),
        ("demo", {"demo": {"max_tokens": True}}),
        ("demo", {"demo": {"max_tokens": "8"}}),
        ("bench", {"bench": {"users": [2.9]}}),
        ("bench", {"bench": {"lambdas": [True]}}),
        ("bench", {"bench": {"in_tokens": "8"}}),
        ("bench", {"bench": {"users": 2}}),
        # a float field takes a finite number, not a bool
        ("demo", {"obfuscation": {"epsilon": True}}),
        ("demo", {"obfuscation": {"epsilon": float("nan")}}),
        ("demo", {"obfuscation": {"epsilon": float("inf")}}),
        ("demo", {"obfuscation": {"temperature": True}}),
        ("demo", {"obfuscation": {"temperature": float("nan")}}),
        ("demo", {"obfuscation": {"temperature": float("inf")}}),
    ])
    def test_invalid_value_is_a_config_error(self, tmp_path, capsys, command, data):
        path = write_config(tmp_path, data)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


class TestDemoCommand:
    def test_default_demo_passes(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "invariance check" in out
        assert "authentic response" in out

    def test_demo_transcript_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "t1.txt"
        out2 = tmp_path / "t2.txt"
        assert main(["demo", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["demo", "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_demo_transcript_pinned(self, tmp_path, capsys):
        # the default demo's transcript, byte for byte: a change to any
        # token, frame or byte count of the run moves it
        out = tmp_path / "t.txt"
        assert main(["demo", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (len(data), data.count(b"\n")) == (13144, 464)
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        assert digest == "304059ce50eaac522aceeb5c2f9d4de7"

    def test_demo_obfuscation_abort_exit_code(self, tmp_path, capsys):
        # the demo corpus cannot yield 500 decoys; lambda_min forces a halt
        path = write_config(
            tmp_path, {"obfuscation": {"lambda_min": 500, "lambda_max": 600}}
        )
        assert main(["demo", "--config", path]) == 3

    # without decoys the demo runs as a set of one prompt, unless
    # lambda_min asks for decoys (the default asks for 1)
    @pytest.mark.parametrize("obfuscation,code", [
        ({"epsilon": 0.0, "lambda_min": 0}, 0),
        ({"lambda_max": 0, "lambda_min": 0}, 0),
        ({"epsilon": 0.0}, 3),
    ])
    def test_demo_without_decoys(self, tmp_path, capsys, obfuscation, code):
        path = write_config(tmp_path, {"obfuscation": obfuscation})
        assert main(["demo", "--config", path]) == code
        if code == 0:
            assert "virtual prompts decoded: 1\n" in capsys.readouterr().out

    # a peer that breaks the protocol ends the demo with exit 4, whether a
    # frame fails to parse or the controller kills a stream
    def test_demo_malformed_partial_exit_code(self, capsys, monkeypatch):
        answer = protocol.UserParty._answer_query

        def unassigned_tag(party, msg):
            frame = answer(party, msg)
            return frame[:4] + b"\x04" + frame[5:]

        monkeypatch.setattr(protocol.UserParty, "_answer_query", unassigned_tag)
        assert main(["demo"]) == 4
        assert capsys.readouterr().err.startswith("protocol violation: unknown tag 0x04")

    def test_demo_killed_stream_exit_code(self, capsys, monkeypatch):
        queue = protocol.UserParty._queue_outward

        def flip_third(party, msg):
            if len(party.streams[msg.session_id].tokens) == 3:
                msg = ProtocolMessage(msg.tag, msg.session_id,
                                      payload=encode_token(decode_token(msg.payload) ^ 1))
            queue(party, msg)

        monkeypatch.setattr(protocol.UserParty, "_queue_outward", flip_third)
        assert main(["demo"]) == 4
        assert capsys.readouterr().err.startswith("sessions killed by the controller: ")

    def test_demo_invariance_failure_exit_code(self, capsys, monkeypatch):
        # a response that differs from the monolithic decode ends the demo with exit 2
        monkeypatch.setattr(cli, "greedy_decode", lambda *args, **kwargs: [])
        assert main(["demo"]) == 2
        assert capsys.readouterr().err.startswith("invariance check FAILED")

    def test_demo_unknown_key_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus_section": {}})
        assert main(["demo", "--config", path]) == 2

    # a config path that names a directory, or a file that is not UTF-8
    @pytest.mark.parametrize("unreadable", ["directory", "latin-1"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, unreadable):
        path = tmp_path / "config.json"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"demo": {"prompt": "café"}}'.encode("latin-1"))
        assert main(["demo", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: config file cannot be read")

    def test_verbose_shows_virtual_prompts(self, capsys):
        assert main(["demo", "-v"]) == 0
        assert "authentic_idx" in capsys.readouterr().out


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["theorem1", "gqs", "bounds", "protocol"])
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class TestOptionPlacement:
    # options follow the command that reads them; anything else is a
    # usage error rather than a silently dropped value
    @pytest.mark.parametrize(
        "argv", [["--seed", "3", "demo"], ["verify", "theorem1", "--seed", "3"]]
    )
    def test_misplaced_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestBenchCommand:
    def test_bench_writes_sorted_csv(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "bench": {
                    "users": [1, 2],
                    "modes": ["no_protection", "full_isolation", "spd"],
                    "lambdas": [0, 1],
                    "in_tokens": 4,
                    "out_tokens": 4,
                    "repetitions": 3,
                    "model": {
                        "n_layers": 1,
                        "n_heads": 1,
                        "d_model": 16,
                        "head_dim": 16,
                        "vocab_size": 16,
                        "max_seq": 16,
                        "seed": 2,
                    },
                }
            },
        )
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--config", path, "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("mode,users,lambda,")
        assert len(lines) == 1 + 12  # 3 modes x 2 users x 2 lambdas
        rows = [line.split(",")[:3] for line in lines[1:]]
        assert rows == sorted(rows)

        # re-running is identical outside the timing columns
        out_csv2 = tmp_path / "bench2.csv"
        assert main(["bench", "--config", path, "--out", str(out_csv2)]) == 0
        timing = {5, 6}  # ms_per_token_med, ms_per_token_p95
        for line1, line2 in zip(lines, out_csv2.read_text().strip().splitlines()):
            kept1 = [f for i, f in enumerate(line1.split(",")) if i not in timing]
            kept2 = [f for i, f in enumerate(line2.split(",")) if i not in timing]
            assert kept1 == kept2
