"""Tape-free fused inference engine for :class:`repro.vit.VitalModel`.

An :class:`InferenceSession` compiles a trained model once into flat,
C-contiguous float32 weight arrays plus a preallocated set of scratch
buffers, then serves predictions without touching the autograd tape at
all:

* the three Q/K/V projections of every attention block are packed into a
  single ``(D, 3D)`` matmul;
* LayerNorm gain/shift parameters are folded into the matmul that follows
  each normalization (:func:`repro.infer.ops.fold_norm_into_dense`);
* the patch-extraction gather grid is taken from the same per-geometry
  cache the model uses (:func:`repro.vit.patching.patch_index_grid`);
* every large intermediate lives in a scratch buffer sized for the
  configured micro-batch and is reused across calls.

``predict`` serves one micro-batch; ``predict_many`` chunks an arbitrary
workload through the same buffers, which is the server-style entry point.
"""

from __future__ import annotations

import time

import numpy as np

from repro import nn
from repro.infer.ops import (
    contiguous_f32,
    dense_,
    fold_norm_into_dense,
    gelu_,
    layer_norm_,
    softmax_,
)
from repro.vit.model import VitalModel
from repro.vit.patching import patch_index_grid


#: Version tag of the picklable session snapshot shipped to serving workers.
SNAPSHOT_FORMAT = "repro.infer.session/v1"

#: State keys every restorable session snapshot must carry.  ``__setstate__``
#: dereferences these while rebuilding scratch buffers, so a snapshot missing
#: any of them is truncated/corrupted and must be rejected up front with a
#: clear error instead of an AttributeError deep inside allocation.
_REQUIRED_STATE_KEYS = (
    "max_batch",
    "image_size",
    "channels",
    "patch_size",
    "num_patches",
    "num_classes",
    "patch_grid",
    "w_embed",
    "pos_bias",
    "blocks",
    "head_weights",
    "eps_final",
    "final_width",
)

#: Entries of snapshots written before the single-engine path: the
#: kernel choice and its tuned GEMM plans.  Dropped on restore.
_LEGACY_STATE_KEYS = ("kernel", "kernel_plans")


def _drop_legacy_keys(state: dict) -> dict:
    """``state`` without the retired kernel-selection entries."""
    return {k: v for k, v in state.items() if k not in _LEGACY_STATE_KEYS}


def _validate_state(state, fmt: str) -> dict:
    """Reject truncated/corrupted snapshot state before restoring from it."""
    if not isinstance(state, dict):
        raise ValueError(
            f"corrupted {fmt} snapshot: state must be a dict, "
            f"got {type(state).__name__}"
        )
    missing = [key for key in _REQUIRED_STATE_KEYS if key not in state]
    if missing:
        raise ValueError(
            f"truncated {fmt} snapshot: state is missing {missing}"
        )
    return state


def _gelu_planes(scratch: np.ndarray, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two GELU scratch buffers for activation ``like``: the fronts of
    the two rows of ``scratch`` (shape ``(2, capacity)``), reshaped.  Both
    are C-contiguous at every batch size and width, so the kernel's
    ufuncs run as single flat loops instead of one inner loop per row of
    a strided sub-box."""
    size, shape = like.size, like.shape
    return scratch[0, :size].reshape(shape), scratch[1, :size].reshape(shape)


def _validate_max_batch(value) -> int:
    """Validate a micro-batch capacity before any buffer allocation happens.

    Shared by :class:`InferenceSession`, :class:`repro.infer.CompiledModule`
    and the serving layer so the error reads the same everywhere."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"max_batch must be a positive integer, got {value!r} "
            f"({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(
            f"max_batch must be >= 1, got {value}; micro-batches hold at "
            "least one sample"
        )
    return int(value)


def _collect_dense_chain(sequential: nn.Sequential, what: str) -> list[nn.Dense]:
    """Extract the Dense layers of a Dense/GELU/Dropout sequential chain."""
    denses: list[nn.Dense] = []
    for layer in sequential.layers:
        if isinstance(layer, nn.Dense):
            denses.append(layer)
        elif not isinstance(layer, (nn.GELU, nn.Dropout, nn.Identity)):
            raise TypeError(
                f"cannot compile {what}: unsupported layer {layer!r} "
                "(expected Dense/GELU/Dropout)"
            )
    return denses


class _BlockProgram:
    """Compiled weights + scratch buffers of one transformer encoder block."""

    def __init__(self, block, max_batch: int):
        dim = block.dim
        heads = block.attention.heads
        head_dim = block.attention.head_dim

        attn = block.attention
        # Pack Q/K/V into one (D, 3D) matmul and fold the pre-norm affine in.
        packed_w = np.concatenate(
            [attn.query.weight.data, attn.key.weight.data, attn.value.weight.data],
            axis=1,
        )
        packed_b = np.concatenate(
            [attn.query.bias.data, attn.key.bias.data, attn.value.bias.data]
        )
        self.w_qkv, self.b_qkv = fold_norm_into_dense(
            block.norm_attention.gamma.data,
            block.norm_attention.beta.data,
            packed_w,
            packed_b,
        )
        self.w_out = contiguous_f32(attn.out.weight.data)
        self.b_out = contiguous_f32(attn.out.bias.data)
        self.scale = np.float32(attn.scale)
        self.eps_attn = block.norm_attention.eps
        self.eps_mlp = block.norm_mlp.eps

        mlp_denses = _collect_dense_chain(block.mlp, "encoder MLP")
        self.mlp_weights: list[tuple[np.ndarray, np.ndarray]] = []
        for index, dense in enumerate(mlp_denses):
            if index == 0:
                w, b = fold_norm_into_dense(
                    block.norm_mlp.gamma.data,
                    block.norm_mlp.beta.data,
                    dense.weight.data,
                    dense.bias.data if dense.bias is not None else None,
                )
            else:
                w = contiguous_f32(dense.weight.data)
                b = contiguous_f32(dense.bias.data) if dense.bias is not None else None
            self.mlp_weights.append((w, b))

        self.dim = dim
        self.heads = heads
        self.head_dim = head_dim
        self.mlp_widths = [w.shape[1] for w, _b in self.mlp_weights]
        self.out_dim = block.out_dim
        self._buffers_for = None
        self._max_batch = max_batch

    #: Lazily (re)allocated scratch attributes, excluded from pickles so
    #: a snapshot ships only the compiled weights.
    _SCRATCH = ("normed", "qkv", "scores", "context", "merged",
                "mlp_bufs", "gelu_tmp", "block_out", "proj", "mlp_out")

    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k not in self._SCRATCH}
        state["_buffers_for"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._buffers_for = None

    def _allocate(self, seq: int) -> None:
        """Scratch buffers for ``(max_batch, seq)`` inputs, reused per call."""
        B, D, h, hd = self._max_batch, self.dim, self.heads, self.head_dim
        f32 = np.float32
        self.normed = np.empty((B, seq, D), dtype=f32)
        # qkv viewed as (B, N, 3, h, hd) so q/k/v split into head layout
        # without copies; the packed weight column order matches.
        self.qkv = np.empty((B, seq, 3 * D), dtype=f32)
        self.scores = np.empty((B, h, seq, seq), dtype=f32)
        self.context = np.empty((B, h, seq, hd), dtype=f32)
        self.merged = np.empty((B, seq, D), dtype=f32)
        self.mlp_bufs = [np.empty((B, seq, u), dtype=f32) for u in self.mlp_widths[:-1]]
        self.gelu_tmp = np.empty((2, B * seq * max(self.mlp_widths)), dtype=f32)
        self.block_out = np.empty((B, seq, self.out_dim), dtype=f32)
        # Contiguous targets for the two strided-output sites, so the
        # folded GEMMs never pay matmul's internal strided buffering.
        self.proj = np.empty((B, seq, D), dtype=f32)
        self.mlp_out = np.empty((B, seq, self.out_dim - D), dtype=f32)
        self._buffers_for = seq

    def run(self, tokens: np.ndarray) -> np.ndarray:
        """One fused encoder block over ``(b, N, D)`` tokens; returns a
        ``(b, N, out_dim)`` view into this block's output buffer.

        Token panels fold to 2-D so every dense site is one GEMM instead
        of one BLAS call per sample, and the two strided-output sites
        (attention out-projection, last MLP dense) write through
        contiguous scratch (``proj`` / ``mlp_out``) instead of matmul's
        internal strided-out buffering."""
        b, seq, _dim = tokens.shape
        if self._buffers_for != seq:
            self._allocate(seq)
        D, h, hd = self.dim, self.heads, self.head_dim
        rows = b * seq
        normed = self.normed[:b]
        qkv = self.qkv[:b]
        scores = self.scores[:b]
        context = self.context[:b]
        merged = self.merged[:b]
        proj = self.proj[:b]
        out = self.block_out[:b]
        attended = out[..., :D]

        # --- attention sub-block (pre-norm folded into the packed matmul)
        layer_norm_(tokens, self.eps_attn, out=normed)
        dense_(normed.reshape(rows, D), self.w_qkv, self.b_qkv,
               out=qkv.reshape(rows, 3 * D))
        split = qkv.reshape(b, seq, 3, h, hd)
        q = split[:, :, 0].transpose(0, 2, 1, 3)  # (b, h, N, hd) views
        k = split[:, :, 1].transpose(0, 2, 1, 3)
        v = split[:, :, 2].transpose(0, 2, 1, 3)
        np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
        scores *= self.scale
        softmax_(scores)
        np.matmul(scores, v, out=context)
        np.copyto(merged.reshape(b, seq, h, hd), context.transpose(0, 2, 1, 3))
        dense_(merged.reshape(rows, D), self.w_out, self.b_out,
               out=proj.reshape(rows, D))
        np.add(proj, tokens, out=attended)  # residual

        # --- MLP sub-block (pre-norm folded into the first dense)
        layer_norm_(attended, self.eps_mlp, out=normed)
        x2d = normed.reshape(rows, D)
        for index, (w, bias) in enumerate(self.mlp_weights):
            last = index == len(self.mlp_weights) - 1
            target = self.mlp_out[:b] if last else self.mlp_bufs[index][:b]
            width = target.shape[-1]
            dense_(x2d, w, bias, out=target.reshape(rows, width))
            gelu_(target, *_gelu_planes(self.gelu_tmp, target))
            x2d = target.reshape(rows, width)
        np.copyto(out[..., D:], self.mlp_out[:b])
        return out


class InferenceSession:
    """Compiled, tape-free forward engine for a trained ``VitalModel``.

    Parameters
    ----------
    model:
        The trained model; its weights are copied into flat float32 arrays
        at construction (later training steps do not affect the session).
    max_batch:
        Micro-batch capacity of the scratch buffers.  ``predict`` serves at
        most this many samples per call; ``predict_many`` chunks any
        workload through it.
    """

    def __init__(self, model: VitalModel, max_batch: int = 32):
        if not isinstance(model, VitalModel):
            raise TypeError(
                f"InferenceSession compiles VitalModel, got {type(model).__name__}; "
                "use repro.infer.compile_module for sequential baseline models"
            )
        self.max_batch = _validate_max_batch(max_batch)
        self.image_size = model.image_size
        self.channels = model.channels
        self.patch_size = model.patch_size
        self.num_patches = model.num_patches
        self.num_classes = model.num_classes

        # Same per-geometry cached gather grid the model itself uses.
        self.patch_grid = patch_index_grid(self.image_size, self.patch_size, self.channels)

        # --- embedding: projection bias + position embedding fused into one add
        self.w_embed = contiguous_f32(model.embedding.projection.weight.data)
        pos = model.embedding.position.data.astype(np.float64)
        bias = model.embedding.projection.bias.data.astype(np.float64)
        self.pos_bias = contiguous_f32(pos + bias)  # (N, D)

        self.blocks = [_BlockProgram(block, self.max_batch) for block in model.encoder]

        # --- head: final norm folded into the first head dense
        head_denses = _collect_dense_chain(model.head, "head MLP")
        self.head_weights: list[tuple[np.ndarray, np.ndarray]] = []
        for index, dense in enumerate(head_denses):
            if index == 0:
                w, b = fold_norm_into_dense(
                    model.final_norm.gamma.data,
                    model.final_norm.beta.data,
                    dense.weight.data,
                    dense.bias.data if dense.bias is not None else None,
                )
            else:
                w = contiguous_f32(dense.weight.data)
                b = contiguous_f32(dense.bias.data) if dense.bias is not None else None
            self.head_weights.append((w, b))
        self.eps_final = model.final_norm.eps
        self.final_width = model.final_norm.features

        self._allocate_scratch()

    def gemm_sites(self) -> list[dict]:
        """Shape identity of every GEMM site this engine runs.

        Each entry reports the site name, the ``(m, k, n)`` folded
        single-sample shape (``m`` is ``None`` for head sites, whose row
        count is the request batch size) and the weight storage
        (``float32`` or ``int8``).  This is the vocabulary profiling
        output and the ``obs top`` CLI use to talk about compute."""

        def entry(site, m, weight):
            k, n = int(weight.shape[0]), int(weight.shape[1])
            return {
                "site": site,
                "m": m,
                "k": k,
                "n": n,
                "weight": "float32" if isinstance(weight, np.ndarray)
                          else "int8",
            }

        rows = self.num_patches
        sites = [entry("embed", rows, self.w_embed)]
        if self.blocks:
            block = self.blocks[0]
            sites.append(entry("qkv", rows, block.w_qkv))
            sites.append(entry("attn_out", rows, block.w_out))
            for index, (w, _bias) in enumerate(block.mlp_weights):
                sites.append(entry(f"mlp{index}", rows, w))
        for index, (w, _bias) in enumerate(self.head_weights):
            sites.append(entry(f"head{index}", None, w))
        return sites

    def _allocate_scratch(self) -> None:
        """(Re)allocate the top-level scratch buffers shared across calls."""
        B, N = self.max_batch, self.num_patches
        f32 = np.float32
        patch_dim = self.patch_grid.shape[1]
        self._patches = np.empty((B, N, patch_dim), dtype=f32)
        self._tokens = np.empty((B, N, self.w_embed.shape[1]), dtype=f32)
        self._final_normed = np.empty((B, N, self.final_width), dtype=f32)
        self._pooled = np.empty((B, self.final_width), dtype=f32)
        head_widths = [w.shape[1] for w, _b in self.head_weights]
        self._head_bufs = [np.empty((B, u), dtype=f32) for u in head_widths]
        self._head_tmp = np.empty((2, B * max(head_widths)), dtype=f32)
        # Opt-in per-phase profiler (repro.obs.profile.SessionProfiler);
        # scratch-excluded, so restored sessions always start unprofiled.
        self._profiler = getattr(self, "_profiler", None)

    # -- snapshot / restore -------------------------------------------
    #: Scratch attributes excluded from pickles; rebuilt on restore.
    _SCRATCH = ("_patches", "_tokens", "_final_normed", "_pooled",
                "_head_bufs", "_head_tmp", "_profiler")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._SCRATCH}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(_drop_legacy_keys(state))
        self._allocate_scratch()

    def snapshot(self) -> dict:
        """Compact, picklable snapshot of the compiled engine.

        The snapshot holds only the flat float32 weight arrays, the gather
        grid and the geometry — no scratch buffers, no model, no tape — so
        it is cheap to ship over a ``multiprocessing`` pipe/queue to
        serving workers.  The arrays are shared, not copied (zero-copy
        handoff under ``fork``; pickled once under ``spawn``).
        """
        return {"format": SNAPSHOT_FORMAT, "state": self.__getstate__()}

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "InferenceSession":
        """Rebuild a session from :meth:`snapshot` without a ``VitalModel``."""
        if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"not an InferenceSession snapshot (expected format "
                f"{SNAPSHOT_FORMAT!r}, got {snapshot.get('format') if isinstance(snapshot, dict) else snapshot!r})"
            )
        session = cls.__new__(cls)
        session.__setstate__(_validate_state(snapshot.get("state"), SNAPSHOT_FORMAT))
        return session

    # ------------------------------------------------------------------
    @classmethod
    def from_state_dict(
        cls,
        config,
        image_size: int,
        channels: int,
        num_classes: int,
        state: dict[str, np.ndarray],
        max_batch: int = 32,
    ) -> "InferenceSession":
        """Build a session straight from saved weights (``nn.load_arrays``)."""
        model = VitalModel(config, image_size=image_size, channels=channels,
                           num_classes=num_classes)
        model.load_state_dict(state)
        return cls(model, max_batch=max_batch)

    # ------------------------------------------------------------------
    def _coerce(self, images) -> np.ndarray:
        x = np.asarray(images, dtype=np.float32)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1] != self.image_size or x.shape[2] != self.image_size \
                or x.shape[3] != self.channels:
            raise ValueError(
                f"expected (batch, {self.image_size}, {self.image_size}, "
                f"{self.channels}) images, got {np.shape(images)}"
            )
        return x

    def predict(self, images) -> np.ndarray:
        """Logits for one micro-batch of ``(b, S, S, C)`` images, b ≤ max_batch."""
        x = self._coerce(images)
        b = len(x)
        if b > self.max_batch:
            raise ValueError(
                f"batch {b} exceeds max_batch {self.max_batch}; use predict_many"
            )
        # Profiling hook: one `is not None` check per phase when disabled
        # (the default — `_profiler` lives in scratch and restores to None).
        prof = self._profiler
        if prof is not None:
            t0 = time.perf_counter()
        flat = x.reshape(b, -1)
        patches = self._patches[:b]
        np.take(flat, self.patch_grid, axis=1, out=patches)
        if prof is not None:
            t0 = prof.lap("patch_gather", t0)

        tokens = self._tokens[:b]
        rows = b * self.num_patches
        dense_(patches.reshape(rows, patches.shape[-1]), self.w_embed, None,
               out=tokens.reshape(rows, tokens.shape[-1]))
        tokens += self.pos_bias
        if prof is not None:
            t0 = prof.lap("embed", t0)

        out = tokens
        if prof is not None:
            for index, block in enumerate(self.blocks):
                out = block.run(out)
                t0 = prof.lap(f"block{index}", t0)
        else:
            for block in self.blocks:
                out = block.run(out)

        normed = self._final_normed[:b]
        layer_norm_(out, self.eps_final, out=normed)
        pooled = self._pooled[:b]
        np.mean(normed, axis=1, out=pooled)
        if prof is not None:
            t0 = prof.lap("final_norm_pool", t0)

        x2d = pooled
        for index, (w, bias) in enumerate(self.head_weights):
            target = self._head_bufs[index][:b]
            dense_(x2d, w, bias, out=target)
            if index < len(self.head_weights) - 1:
                gelu_(target, *_gelu_planes(self._head_tmp, target))
            x2d = target
        if prof is not None:
            prof.lap("head", t0)
        return x2d.copy()

    def predict_many(self, images, max_batch: int | None = None) -> np.ndarray:
        """Logits for an arbitrary workload, chunked through the scratch
        buffers ``max_batch`` samples at a time."""
        if max_batch is not None:
            max_batch = _validate_max_batch(max_batch)
        x = self._coerce(images)
        chunk = min(self.max_batch, max_batch or self.max_batch)
        out = np.empty((len(x), self.num_classes), dtype=np.float32)
        for begin in range(0, len(x), chunk):
            out[begin : begin + chunk] = self.predict(x[begin : begin + chunk])
        return out

    def predict_labels(self, images) -> np.ndarray:
        """Argmax reference-point indices for an arbitrary workload."""
        return self.predict_many(images).argmax(axis=1)

    def __call__(self, images) -> np.ndarray:
        return self.predict_many(images)

    def __repr__(self) -> str:
        return (
            f"InferenceSession(image={self.image_size}, patches={self.num_patches}, "
            f"blocks={len(self.blocks)}, classes={self.num_classes}, "
            f"max_batch={self.max_batch})"
        )


def restore_session(snapshot: dict) -> "InferenceSession":
    """Restore any engine snapshot — float32 or quantized — by format tag.

    Serving workers use this single entry point so a
    :class:`LocalizationServer` can be seeded with either a plain
    :meth:`InferenceSession.snapshot` or a
    :meth:`repro.quant.QuantizedSession.snapshot` (int8 codes, ~4x fewer
    bytes over the ``multiprocessing`` queues).
    """
    fmt = snapshot.get("format") if isinstance(snapshot, dict) else None
    if fmt == SNAPSHOT_FORMAT:
        return InferenceSession.from_snapshot(snapshot)
    if isinstance(fmt, str) and fmt.startswith("repro.quant.session/"):
        from repro.quant.session import QuantizedSession

        return QuantizedSession.from_snapshot(snapshot)
    raise ValueError(
        f"not a restorable session snapshot (format {fmt!r}; expected "
        f"{SNAPSHOT_FORMAT!r} or a repro.quant.session/* snapshot)"
    )


def snapshot_info(snapshot) -> dict:
    """Cheap metadata peek at any restorable engine snapshot.

    Returns geometry + format facts (image size, channels, classes,
    micro-batch capacity, block count; quantization scheme/mode/bits for
    int8 snapshots) without rebuilding a session — the
    :mod:`repro.fleet` registry records this in every version manifest,
    and the CLI uses it to validate ``--snapshot`` files before serving.
    Raises ``ValueError`` for unknown formats or truncated state, the
    same contract as :func:`restore_session`.
    """
    fmt = snapshot.get("format") if isinstance(snapshot, dict) else None
    quantized = isinstance(fmt, str) and fmt.startswith("repro.quant.session/")
    if fmt != SNAPSHOT_FORMAT and not quantized:
        raise ValueError(
            f"not a restorable session snapshot (format {fmt!r}; expected "
            f"{SNAPSHOT_FORMAT!r} or a repro.quant.session/* snapshot)"
        )
    state = _validate_state(snapshot.get("state"), fmt)
    info = {
        "format": fmt,
        "quantized": quantized,
        "image_size": int(state["image_size"]),
        "channels": int(state["channels"]),
        "num_classes": int(state["num_classes"]),
        "max_batch": int(state["max_batch"]),
        "blocks": len(state["blocks"]),
    }
    if quantized:
        info.update(
            scheme=snapshot.get("scheme"),
            mode=snapshot.get("mode"),
            bits=snapshot.get("bits"),
        )
    return info
