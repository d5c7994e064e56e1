"""Run configuration: one nested JSON file mirroring the model,
obfuscation and bench dataclasses. Unknown keys are rejected everywhere
so silent typos cannot change an experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    demo: dict
    bench: dict


def parse_run_config(raw: dict, seed: int | None = None) -> RunConfig:
    _check_keys("config", raw, DEFAULTS)
    merged = _merge("config", DEFAULTS, raw)
    model_kwargs = dict(merged["model"])
    bench = dict(merged["bench"])
    if seed is not None:
        model_kwargs["seed"] = seed
        bench["model"] = dict(bench["model"], seed=seed)
    obf_kwargs = dict(merged["obfuscation"])
    obf_kwargs["prf_key"] = str(obf_kwargs["prf_key"]).encode("utf-8")
    try:
        model = ModelConfig(**model_kwargs)
        obf = ObfuscationConfig(**obf_kwargs)
        bench["model"] = ModelConfig(**bench["model"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(model=model, obfuscation=obf, demo=merged["demo"], bench=bench)


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
