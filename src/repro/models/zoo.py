"""Model specifications for the paper's four evaluation models (§9).

Parameter counts follow the paper's naming (e.g. "OPT-66B (120GB)" in
Table 2): the declared checkpoint size is authoritative and operator sizes
are scaled proportionally so the graph's total matches it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.transfer.links import GB


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyper-parameters of one serving model."""

    name: str
    n_layers: int
    hidden: int
    n_heads: int
    vocab: int
    checkpoint_bytes: float  # declared fp16 checkpoint size (authoritative)
    encoder_layers: int = 0  # >0 for encoder-decoder models (Whisper)
    # Average effective context used for KV sizing; calibrated so OPT-66B's
    # max-batch column in Table 2 (128/256/512/1024) is reproduced exactly.
    avg_context_tokens: int = 660

    def __post_init__(self) -> None:
        if self.n_layers <= 0 or self.hidden <= 0:
            raise ValueError(f"invalid architecture for {self.name}")
        if self.checkpoint_bytes <= 0:
            raise ValueError(f"invalid checkpoint size for {self.name}")

    @property
    def total_layers(self) -> int:
        return self.n_layers + self.encoder_layers

    @property
    def kv_bytes_per_token(self) -> float:
        """fp16 K+V bytes per token across all decoder layers.

        2 (K,V) x 2 bytes x hidden x n_layers.
        """
        return 4.0 * self.hidden * self.n_layers

    @property
    def kv_bytes_per_request(self) -> float:
        """KV footprint of one request at the average effective context."""
        return self.kv_bytes_per_token * self.avg_context_tokens


OPT_66B = ModelSpec(
    name="OPT-66B",
    n_layers=64,
    hidden=9216,
    n_heads=72,
    vocab=50272,
    checkpoint_bytes=120.0 * GB,  # Table 2: "OPT-66B (120GB)"
)

LLAMA2_7B = ModelSpec(
    name="LLAMA2-7B",
    n_layers=32,
    hidden=4096,
    n_heads=32,
    vocab=32000,
    checkpoint_bytes=13.5 * GB,
)

BERT_21B = ModelSpec(
    name="BERT-21B",
    n_layers=48,
    hidden=6144,
    n_heads=48,
    vocab=30522,
    checkpoint_bytes=42.0 * GB,
)

WHISPER_9B = ModelSpec(
    name="WHISPER-9B",
    n_layers=32,
    hidden=4096,
    n_heads=32,
    vocab=51865,
    checkpoint_bytes=18.0 * GB,
    encoder_layers=12,
)

MODEL_ZOO: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (OPT_66B, LLAMA2_7B, BERT_21B, WHISPER_9B)
}


# Synthetic fleet tenants for 100+ model scenarios: "FLEET-<idx>" (size
# derived deterministically from the index) or "FLEET-<idx>-<size>g" (size
# pinned by the name).  The name alone fully determines the spec, so
# worker processes resolve identical fleets without shipping specs around.
_FLEET_RE = re.compile(r"^FLEET-(\d+)(?:-(\d+(?:\.\d+)?)g)?$")
_FLEET_CACHE: dict[str, ModelSpec] = {}


def _synthesize_fleet_model(name: str) -> ModelSpec | None:
    m = _FLEET_RE.match(name)
    if m is None:
        return None
    idx = int(m.group(1))
    if m.group(2) is not None:
        size_gb = float(m.group(2))
    else:
        # Deterministic log-uniform over [4, 40) GB (Weyl sequence on the
        # index — no RNG, stable across processes and runs).
        u = (idx * 2654435761 % 4096) / 4096.0
        size_gb = 4.0 * (10.0**u)
    if size_gb <= 0:
        raise KeyError(f"fleet model {name!r} declares a non-positive size")
    # Depth grows slowly with size and stays small: the granularity-ladder
    # DP is O(layers^2)-ish per rung.  Tenants of one size share one
    # architecture, so they share one ladder (see ``repro.core.context``).
    n_layers = min(8 + int(size_gb // 6) * 2, 28)
    return ModelSpec(
        name=name,
        n_layers=n_layers,
        hidden=4096,
        n_heads=32,
        vocab=32000,
        checkpoint_bytes=size_gb * GB,
    )


def get_model(name: str) -> ModelSpec:
    """Look up a model by its paper name; raises ``KeyError`` with options.

    ``FLEET-*`` names synthesize (and memoize) a deterministic tenant spec,
    supporting 100+ model fleet scenarios without hand-writing a zoo.
    """
    try:
        return MODEL_ZOO[name]
    except KeyError:
        pass
    # Memoized separately so MODEL_ZOO keeps exactly the paper's models
    # (per-model sweeps iterate it).
    spec = _FLEET_CACHE.get(name)
    if spec is None:
        spec = _synthesize_fleet_model(name)
        if spec is not None:
            _FLEET_CACHE[name] = spec
    if spec is not None:
        return spec
    raise KeyError(
        f"unknown model {name!r}; available: {sorted(MODEL_ZOO)} "
        f"or synthetic 'FLEET-<idx>[-<size>g]' tenants"
    ) from None
