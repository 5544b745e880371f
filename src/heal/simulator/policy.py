"""Tabular autoregressive policy: one logit row per short token context.

The policy conditions on the last ``context_window`` tokens of the running
sequence (prompt plus generated tokens), left-padded when shorter. A dense
float64 table of shape (vocab_size ** context_window, vocab_size) holds the
logits, so gradients are exact and the whole parameter vector stays small
enough for finite-difference checking.

Binary layout of a saved policy: 8-byte magic "HEALPOL1", then vocab_size
and context_window as little-endian u32, then the table as little-endian
float64 in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ValidationError
from .tasks import PAD_TOKEN, VOCAB_SIZE

MAGIC = b"HEALPOL1"

MAX_VOCAB = 32
MAX_WINDOW = 3


def check_vocab_size(vocab_size: int) -> None:
    """Refuse a vocabulary size outside [2, MAX_VOCAB]."""
    if not 2 <= vocab_size <= MAX_VOCAB:
        raise ValidationError(f"vocab_size must lie in [2, {MAX_VOCAB}], got {vocab_size}")


def check_context_window(context_window: int) -> None:
    """Refuse a context window outside [1, MAX_WINDOW]."""
    if not 1 <= context_window <= MAX_WINDOW:
        raise ValidationError(
            f"context_window must lie in [1, {MAX_WINDOW}], got {context_window}"
        )


class TabularPolicy:
    """Dense logit table over fixed-width token contexts."""

    def __init__(
        self,
        vocab_size: int = VOCAB_SIZE,
        context_window: int = 2,
        table: np.ndarray | None = None,
    ):
        check_vocab_size(vocab_size)
        check_context_window(context_window)
        self.vocab_size = vocab_size
        self.context_window = context_window
        n_contexts = vocab_size**context_window
        if table is None:
            table = np.zeros((n_contexts, vocab_size))
        else:
            table = np.asarray(table, dtype=np.float64)
            if table.shape != (n_contexts, vocab_size):
                raise ValidationError(
                    f"table shape {table.shape} != {(n_contexts, vocab_size)}"
                )
            if not np.all(np.isfinite(table)):
                raise ValidationError("logit table contains non-finite entries")
        self.table = table

    def context_id(self, tokens) -> int:
        """Encode the last ``context_window`` tokens, left-padded, as a row index."""
        w = self.context_window
        window = [PAD_TOKEN] * max(0, w - len(tokens)) + list(tokens)[-w:]
        cid = 0
        for t in window:
            if not 0 <= t < self.vocab_size:
                raise ValidationError(f"token {t} outside vocabulary of {self.vocab_size}")
            cid = cid * self.vocab_size + t
        return cid

    def advance_context(self, ctx_ids: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Shift context ids one token forward (vectorized rolling window)."""
        base = self.vocab_size ** (self.context_window - 1)
        return (ctx_ids % base) * self.vocab_size + tokens

    def save(self, path) -> None:
        header = MAGIC + struct.pack("<II", self.vocab_size, self.context_window)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.table.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "TabularPolicy":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 16 or blob[:8] != MAGIC:
            raise ValidationError(f"{path}: not a policy file (bad magic)")
        vocab_size, context_window = struct.unpack("<II", blob[8:16])
        try:
            check_vocab_size(vocab_size)
            check_context_window(context_window)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        n_contexts = vocab_size**context_window
        expected = 16 + 8 * n_contexts * vocab_size
        if len(blob) != expected:
            raise ValidationError(
                f"{path}: expected {expected} bytes for the stored table, got {len(blob)}"
            )
        table = np.frombuffer(blob[16:], dtype="<f8").reshape(n_contexts, vocab_size)
        return cls(vocab_size, context_window, table.astype(np.float64))
