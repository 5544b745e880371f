"""Synthetic two-domain verifiable tasks over a shared digit vocabulary.

Every prompt is three digits. The target family asks for a modular sum,
whose answer depends on all three digits; the general families are simple
sequence transforms (reverse, copy, parity). All answers are exactly
checkable, and because prompts carry no family marker, a short-context
policy sees overlapping states across families and domains. That overlap
is what lets general-domain training pressure reach target-domain states.

Vocabulary: digit tokens 0..9, an end-of-sequence token, and a padding
token used only to left-fill short contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

N_DIGITS = 10
END_TOKEN = 10
PAD_TOKEN = 11
VOCAB_SIZE = 12
PROMPT_LEN = 3

TARGET_FAMILIES = ("modsum",)
GENERAL_FAMILIES = ("reverse", "copy", "parity")

# A suite draws each digit prompt at most once per family.
N_PROMPTS = N_DIGITS**PROMPT_LEN
MAX_GENERAL = N_PROMPTS * len(GENERAL_FAMILIES)


@dataclass(frozen=True)
class SynthTask:
    """One verifiable prompt: the answer is a pure function of the prompt."""

    prompt_id: str
    domain: str
    prompt_tokens: tuple[int, ...]
    ground_truth: tuple[int, ...]
    family: str


def ground_truth_for(family: str, prompt_tokens: tuple[int, ...]) -> tuple[int, ...]:
    """Exact answer for a family applied to a digit prompt."""
    d = prompt_tokens
    if any(not 0 <= t < N_DIGITS for t in d):
        raise ValidationError(f"prompt tokens must be digits, got {d}")
    if family == "modsum":
        return (sum(d) % N_DIGITS,)
    if family == "reverse":
        return tuple(reversed(d))
    if family == "copy":
        return tuple(d)
    if family == "parity":
        return (sum(d) % 2,)
    raise ValidationError(f"unknown task family {family!r}")


def check_answer(task: SynthTask, answer_tokens: tuple[int, ...]) -> int:
    """1 when the extracted answer matches the ground truth exactly, else 0."""
    return int(tuple(answer_tokens) == task.ground_truth)


def extract_answer(tokens: list[int]) -> tuple[int, ...]:
    """Generated tokens up to (excluding) the first end token."""
    if END_TOKEN in tokens:
        return tuple(tokens[: tokens.index(END_TOKEN)])
    return tuple(tokens)


def _triple(index: int) -> tuple[int, int, int]:
    return (index // 100, (index // 10) % 10, index % 10)


def make_task_suite(seed: int, n_target: int, n_general: int) -> list[SynthTask]:
    """Deterministic task suite: n_target modsum prompts then n_general
    transforms, families rotating and prompts drawn without replacement
    within each family.
    """
    if n_target < 0 or n_general < 0:
        raise ValidationError("task counts must be >= 0")
    if n_target > N_PROMPTS:
        raise ValidationError(f"n_target must be <= {N_PROMPTS}, got {n_target}")
    if n_general > MAX_GENERAL:
        raise ValidationError(f"n_general must be <= {MAX_GENERAL}, got {n_general}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A5C5]))
    tasks = []
    target_order = rng.permutation(N_PROMPTS)
    for i in range(n_target):
        prompt = _triple(int(target_order[i]))
        tasks.append(
            SynthTask(
                prompt_id=f"tgt-{i:04d}",
                domain="target",
                prompt_tokens=prompt,
                ground_truth=ground_truth_for("modsum", prompt),
                family="modsum",
            )
        )
    family_orders = {f: rng.permutation(N_PROMPTS) for f in GENERAL_FAMILIES}
    family_used = {f: 0 for f in GENERAL_FAMILIES}
    for i in range(n_general):
        family = GENERAL_FAMILIES[i % len(GENERAL_FAMILIES)]
        prompt = _triple(int(family_orders[family][family_used[family]]))
        family_used[family] += 1
        tasks.append(
            SynthTask(
                prompt_id=f"gen-{i:04d}",
                domain="general",
                prompt_tokens=prompt,
                ground_truth=ground_truth_for(family, prompt),
                family=family,
            )
        )
    return tasks
