"""Run configuration: one nested JSON file mirroring the model,
obfuscation and bench dataclasses. Unknown keys are rejected everywhere
so silent typos cannot change an experiment, and a value the sections'
types reject is a ConfigError before anything runs.
"""

from __future__ import annotations

import json
import sys
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


def _merge(name: str, default, value):
    """A fresh copy of value merged over its default and checked against
    it: an object takes only its default's keys, a list only a list, an
    integer or a string only its own type (int() would cut 2.9 to 2 and
    take True), and a float an int or float that a float can hold, not
    the NaN or Infinity that json.load reads."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object")
        unknown = set(value) - set(default)
        if unknown:
            raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
        return {k: _merge(f"{name}.{k}", d, value.get(k, d)) for k, d in default.items()}
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list")
        return [_merge(name, default[0], item) for item in value]
    if isinstance(default, (int, str)) and type(value) is not type(default):
        raise ConfigError(f"{name} must be {type(default).__name__}, got {value!r}")
    if isinstance(default, float):
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass
class RunConfig:
    model: ModelConfig
    obfuscation: ObfuscationConfig
    demo: dict
    bench: list[BenchConfig]  # the sweep: one config per mode, users and lambda


def parse_run_config(raw: dict, seed: int | None = None) -> RunConfig:
    merged = _merge("config", DEFAULTS, raw)
    bench, obf_kwargs = merged["bench"], merged["obfuscation"]
    if seed is not None:
        merged["model"]["seed"] = bench["model"]["seed"] = seed
    obf_kwargs["prf_key"] = obf_kwargs["prf_key"].encode("utf-8")
    try:
        model = ModelConfig(**merged["model"])
        obf = ObfuscationConfig(**obf_kwargs)
        bench_model = ModelConfig(**bench["model"])
        sweep = [
            BenchConfig(
                mode=mode,
                users=users,
                in_tokens=bench["in_tokens"],
                out_tokens=bench["out_tokens"],
                lam=lam,
                model=bench_model,
                repetitions=bench["repetitions"],
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
    return RunConfig(model=model, obfuscation=obf, demo=merged["demo"], bench=sweep)


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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file cannot be read: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return parse_run_config(raw, seed=seed)
