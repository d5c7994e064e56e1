"""Command-line entry point: end-to-end demo, verification suites, and
the scaling bench.

Exit codes: 0 success, 1 resource exhaustion (bench), 2 usage or config
error or invariant failure, 3 obfuscation abort, 4 protocol violation.
"""

from __future__ import annotations

import argparse
import sys

from .bench import bench_csv, sweep
from .config import ConfigError, load_run_config
from .corpora import DEMO_PATTERNS, demo_text
from .langmodel import tokenize_text, train_ngram
from .model import greedy_decode, init_model
from .obfuscation import (
    InsufficientObfuscationError,
    TaggedPrompt,
    dump_virtual_prompts,
    tag_sensitive,
)
from .protocol import (
    Controller,
    ModelParty,
    ProtocolError,
    UserParty,
    WeightsHandle,
    comm_accounting,
    run_sessions,
    user_prefill,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_RESOURCE = 1
EXIT_INVARIANT = 2  # argparse exits with 2 on a usage error too
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
        description="two-party decode with prompt decoys: demo, verification, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", parents=[common], help="tag, obfuscate, decode two-party, winnow")
    verify = sub.add_parser("verify", help="run a property suite")
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
    weights = init_model(cfg.model)
    try:
        oracle = train_ngram(
            sequences, order=cfg.demo["ngram_order"], vocab_size=cfg.model.vocab_size
        )
        user = UserParty(
            user_id=cfg.demo["user_id"], weights_handle=WeightsHandle(weights), oracle=oracle
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    words = cfg.demo["prompt"].split()
    try:
        tokens = [vocab[w] for w in words]
    except KeyError as exc:
        print(f"prompt word {exc} not in the demo vocabulary", file=sys.stderr)
        return EXIT_INVARIANT
    tagged = TaggedPrompt(tokens, tag_sensitive(words, DEMO_PATTERNS))
    print(f"prompt: {cfg.demo['prompt']}")
    print(f"tagged spans: {list(tagged.spans)}")

    model_party = ModelParty(weights)
    ctrl = Controller()
    max_tokens = cfg.demo["max_tokens"]
    try:
        user_prefill(user, tagged, cfg.obfuscation)
        if verbosity >= 1:
            print("-- local debug view (never leaves the user side) --")
            print(dump_virtual_prompts(user.vps, vocab))
        transcript = run_sessions(model_party, ctrl, [user], max_tokens)
    except InsufficientObfuscationError as exc:
        print(f"obfuscation abort: {exc}", file=sys.stderr)
        return EXIT_OBFUSCATION_ABORT
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL

    if ctrl.killed:
        print(f"sessions killed by the controller: {ctrl.killed}", file=sys.stderr)
        return EXIT_PROTOCOL

    authentic = user.authentic_response()
    print(f"virtual prompts decoded: {len(user.vps.prompts)}")
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
    try:
        records = sweep(cfg.bench)
    except MemoryError as exc:
        print(f"resource exhaustion: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    csv_text = bench_csv(records)
    path = out_path or "bench.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text + "\n")
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite)
    try:
        cfg = load_run_config(args.config, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.command == "demo":
        return cmd_demo(cfg, args.verbose, args.out)
    return cmd_bench(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
