"""Run configuration: one nested JSON file mirroring the model,
obfuscation and bench dataclasses. Unknown keys are rejected everywhere
so silent typos cannot change an experiment, and a value the sections'
types reject is a ConfigError before anything runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bench import BenchConfig
from .model import ConfigError, ModelConfig
from .obfuscation import ObfuscationConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "parse_run_config",
]


DEFAULTS = {
    "model": {
        "n_layers": 2,
        "n_heads": 2,
        "d_model": 16,
        "head_dim": 8,
        "vocab_size": 64,
        "max_seq": 96,
        "seed": 7,
    },
    "obfuscation": {
        "epsilon": 0.5,
        "lambda_max": 7,
        "lambda_min": 1,
        "temperature": 1.0,
        "prf_key": "demo-shared-key",
    },
    "demo": {
        "prompt": "patient carol came on friday for a checkup",
        "max_tokens": 16,
        "ngram_order": 2,
        "user_id": 1,
    },
    "bench": {
        "modes": ["no_protection", "full_isolation", "spd"],
        "users": [1, 2, 4, 8],
        "lambdas": [0],
        "in_tokens": 32,
        "out_tokens": 16,
        "repetitions": 3,
        "model": {
            "n_layers": 2,
            "n_heads": 2,
            "d_model": 128,
            "head_dim": 64,
            "vocab_size": 64,
            "max_seq": 64,
            "seed": 11,
        },
    },
}


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _merge(section: str, defaults: dict, given: dict) -> dict:
    _check_keys(section, given, defaults)
    merged = dict(defaults)
    for key, value in given.items():
        if isinstance(defaults.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{section}.{key} must be an object")
            merged[key] = _merge(f"{section}.{key}", defaults[key], value)
        else:
            merged[key] = value
    return merged


@dataclass
class RunConfig:
    model: ModelConfig
    obfuscation: ObfuscationConfig
    demo: dict  # the demo section, each value cast to its default's type
    bench: list[BenchConfig]  # the sweep: one config per mode, users and lambda


def parse_run_config(raw: dict, seed: int | None = None) -> RunConfig:
    _check_keys("config", raw, DEFAULTS)
    merged = _merge("config", DEFAULTS, raw)
    model_kwargs = dict(merged["model"])
    bench = merged["bench"]
    bench_model_kwargs = dict(bench["model"])
    if seed is not None:
        model_kwargs["seed"] = bench_model_kwargs["seed"] = seed
    obf_kwargs = dict(merged["obfuscation"])
    obf_kwargs["prf_key"] = str(obf_kwargs["prf_key"]).encode("utf-8")
    try:
        model = ModelConfig(**model_kwargs)
        obf = ObfuscationConfig(**obf_kwargs)
        demo = {key: type(DEFAULTS["demo"][key])(value) for key, value in merged["demo"].items()}
        bench_model = ModelConfig(**bench_model_kwargs)
        sweep = [
            BenchConfig(
                mode=mode,
                users=int(users),
                in_tokens=int(bench["in_tokens"]),
                out_tokens=int(bench["out_tokens"]),
                lam=int(lam),
                model=bench_model,
                repetitions=int(bench["repetitions"]),
                seed=bench_model.seed,
            )
            for mode in bench["modes"]
            for users in bench["users"]
            for lam in bench["lambdas"]
        ]
        if not sweep:
            raise ValueError("bench needs at least one mode, users count and lambda")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(model=model, obfuscation=obf, demo=demo, bench=sweep)


def load_run_config(path: str | None, seed: int | None = None) -> RunConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file does not parse: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return parse_run_config(raw, seed=seed)
