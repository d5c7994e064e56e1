"""Command-line entry point: end-to-end demo, verification suites, and
the scaling bench.

Exit codes: 0 success, 2 invariant failure, 3 obfuscation abort,
4 protocol violation.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, bench_csv, sweep
from .config import ConfigError, load_run_config
from .corpora import demo_rules_text, demo_text
from .langmodel import tokenize_text, train_ngram
from .model import greedy_decode, init_model
from .obfuscation import (
    InsufficientObfuscationError,
    dump_virtual_prompts,
    parse_tag_rules,
    tag_sensitive,
)
from .protocol import (
    Controller,
    ModelParty,
    ProtocolError,
    UserParty,
    WeightsHandle,
    comm_accounting,
    run_decode_session,
    user_prefill,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_OBFUSCATION_ABORT = 3
EXIT_PROTOCOL = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the model seed")
    common.add_argument("--out", metavar="PATH", help="output file (transcript or CSV)")
    common.add_argument("-v", "--verbose", action="count", default=0)
    parser = argparse.ArgumentParser(
        prog="splitdecode",
        parents=[common],
        description="two-party decode with prompt decoys: demo, verification, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", parents=[common], help="tag, obfuscate, decode two-party, winnow")
    verify = sub.add_parser("verify", parents=[common], help="run a property suite")
    verify.add_argument(
        "suite", choices=["theorem1", "gqs", "bounds", "protocol", "all"]
    )
    sub.add_parser("bench", parents=[common], help="run the scaling sweep and emit CSV")
    return parser


def _words_for(tokens, vocab) -> str:
    id_to_word = {i: w for w, i in vocab.items()}
    return " ".join(id_to_word.get(t, f"<{t}>") for t in tokens)


def cmd_demo(cfg, verbosity: int, out_path: str | None) -> int:
    sequences, vocab = tokenize_text(demo_text())
    if len(vocab) + 1 > cfg.model.vocab_size:
        print("demo corpus does not fit the model vocabulary", file=sys.stderr)
        return EXIT_INVARIANT
    oracle = train_ngram(
        sequences, order=int(cfg.demo["ngram_order"]), vocab_size=cfg.model.vocab_size
    )
    rules = parse_tag_rules(demo_rules_text())
    prompt_words = str(cfg.demo["prompt"]).split()
    try:
        prompt_tokens = [vocab[w] for w in prompt_words]
    except KeyError as exc:
        print(f"prompt word {exc} not in the demo vocabulary", file=sys.stderr)
        return EXIT_INVARIANT
    tagged = tag_sensitive(prompt_tokens, rules, vocab)
    print(f"prompt: {cfg.demo['prompt']}")
    print(f"tagged spans: {list(tagged.spans)}")

    weights = init_model(cfg.model)
    model_party = ModelParty(weights)
    ctrl = Controller()
    user = UserParty(
        user_id=int(cfg.demo["user_id"]),
        weights_handle=WeightsHandle(weights),
        oracle=oracle,
        prf_key=cfg.obfuscation.prf_key,
    )
    max_tokens = int(cfg.demo["max_tokens"])
    try:
        user_prefill(user, tagged, cfg.obfuscation)
        if verbosity >= 1:
            print("-- local debug view (never leaves the user side) --")
            print(dump_virtual_prompts(user.vps, vocab))
        transcript = run_decode_session(user, model_party, ctrl, max_tokens)
    except InsufficientObfuscationError as exc:
        print(f"obfuscation abort: {exc}", file=sys.stderr)
        return EXIT_OBFUSCATION_ABORT
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL

    if transcript.killed:
        print(f"sessions killed by the controller: {transcript.killed}", file=sys.stderr)
        return EXIT_PROTOCOL

    authentic = user.authentic_response()
    print(f"virtual prompts decoded: {user.vps.lam + 1}")
    print(f"authentic response: {_words_for(authentic, vocab)}")

    report = comm_accounting(transcript)
    print(report.to_text())
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(transcript.dump() + "\n")
        print(f"transcript written to {out_path}")
    if verbosity >= 2:
        print(transcript.dump())

    expected = greedy_decode(weights, list(tagged.tokens), max_tokens)
    if authentic != expected:
        print("invariance check FAILED: two-party tokens differ from monolithic",
              file=sys.stderr)
        return EXIT_INVARIANT
    print("invariance check: two-party tokens equal monolithic decode")
    return EXIT_OK


def cmd_verify(suite: str) -> int:
    checks = run_suite(suite)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def cmd_bench(cfg, out_path: str | None) -> int:
    b = cfg.bench
    configs = [
        BenchConfig(
            mode=mode,
            users=int(users),
            in_tokens=int(b["in_tokens"]),
            out_tokens=int(b["out_tokens"]),
            lam=int(lam),
            model=b["model"],
            repetitions=int(b["repetitions"]),
            seed=b["model"].seed,
        )
        for mode in b["modes"]
        for users in b["users"]
        for lam in b["lambdas"]
    ]
    try:
        records = sweep(configs)
    except MemoryError as exc:
        print(f"resource exhaustion: {exc}", file=sys.stderr)
        return 1
    csv_text = bench_csv(records)
    path = out_path or "bench.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text + "\n")
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.command == "demo":
        return cmd_demo(cfg, args.verbose, args.out)
    if args.command == "verify":
        return cmd_verify(args.suite)
    if args.command == "bench":
        return cmd_bench(cfg, args.out)
    parser.error(f"unknown command {args.command}")
    return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
