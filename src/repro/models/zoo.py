"""Model zoo: build, train-on-first-use and cache the mini models.

With no pretrained ImageNet checkpoints available offline, each mini model
is trained from scratch on SynthShapes the first time it is requested and
its weights (plus the FP32 validation accuracy) are cached as ``.npz``
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-quq``).  Subsequent
calls — including every benchmark run — load from the cache, keeping the
harness fast and deterministic.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..data import make_splits
from ..nn import Module
from ..training import TrainConfig, evaluate_top1, train_classifier
from .cnn import CNN_MINI, CNNConfig, build_cnn
from .configs import MINI_CONFIGS, ModelConfig, SwinConfig, get_config
from .swin import build_swin
from .vit import build_vit

__all__ = ["build_model", "get_trained_model", "cache_dir", "DATASET_SPEC"]

#: Shared dataset specification for every zoo model / accuracy experiment.
DATASET_SPEC = {"train_count": 3072, "val_count": 1024, "size": 32, "seed": 0}

#: Per-model training recipes (tuned for ~1 CPU core; the larger model of
#: each family gets fewer epochs because its per-step cost is higher and it
#: converges faster, mirroring the paper's small-vs-large accuracy ordering).
_RECIPES: dict[str, TrainConfig] = {
    "vit_mini_s": TrainConfig(epochs=10, batch_size=64, lr=1.2e-3),
    "vit_mini_l": TrainConfig(epochs=8, batch_size=64, lr=1.0e-3),
    "deit_mini_s": TrainConfig(epochs=10, batch_size=64, lr=1.2e-3),
    "deit_mini_b": TrainConfig(epochs=8, batch_size=64, lr=1.0e-3),
    "swin_mini_t": TrainConfig(epochs=10, batch_size=64, lr=1.2e-3),
    "swin_mini_s": TrainConfig(epochs=10, batch_size=64, lr=1.0e-3),
    "cnn_mini": TrainConfig(epochs=8, batch_size=64, lr=2.0e-3),
}


def cache_dir() -> Path:
    """Directory holding trained checkpoints (created on demand)."""
    root = os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro-quq")
    path = Path(root).expanduser()
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_model(name: str, seed: int = 0) -> Module:
    """Instantiate an untrained model from its config name."""
    if name == CNN_MINI.name:
        return build_cnn(CNN_MINI, seed=seed)
    config = get_config(name)
    if isinstance(config, SwinConfig):
        return build_swin(config, seed=seed)
    if isinstance(config, ModelConfig):
        return build_vit(config, seed=seed)
    raise TypeError(f"unsupported config type {type(config)!r}")


def get_trained_model(
    name: str,
    train_if_missing: bool = True,
    verbose: bool = False,
) -> tuple[Module, float]:
    """Return ``(model, fp32_top1)`` for a mini-zoo model, training if needed."""
    if name not in MINI_CONFIGS and name != CNN_MINI.name:
        raise KeyError(
            f"{name!r} is not a trainable mini model; choices: "
            f"{sorted(MINI_CONFIGS) + [CNN_MINI.name]}"
        )
    model = build_model(name, seed=_RECIPES[name].seed)
    checkpoint = cache_dir() / f"{name}.npz"
    if checkpoint.exists():
        payload = np.load(checkpoint)
        state = {k: payload[k] for k in payload.files if k != "__top1__"}
        model.load_state_dict(state)
        model.eval()
        return model, float(payload["__top1__"])

    if not train_if_missing:
        raise FileNotFoundError(f"no cached checkpoint for {name} at {checkpoint}")

    train_set, val_set = make_splits(**DATASET_SPEC)
    recipe = _RECIPES[name]
    if verbose:
        print(f"[zoo] training {name} ({recipe.epochs} epochs)...")
    train_classifier(model, train_set, recipe)
    # Training can leave float64 weights (the schedule's learning rate is
    # a NumPy float64); cast them as every later load will, so this call
    # returns the same float32 model as they do.
    model.load_state_dict(model.state_dict())
    top1 = evaluate_top1(model, val_set)
    if verbose:
        print(f"[zoo] {name}: fp32 top-1 {top1:.2f}%")

    payload = dict(model.state_dict())
    payload["__top1__"] = np.float32(top1)
    np.savez(checkpoint, **payload)
    return model, top1
