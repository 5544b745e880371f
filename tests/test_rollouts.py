"""Trajectory is the one validator of an entropy curve and its channels."""

import numpy as np
import pytest

from heal.errors import ValidationError
from heal.rollouts import Trajectory

GOOD = dict(prompt_id="p7", domain="target", trajectory_index=3,
            step_entropies=[0.5, 1.0, 0.0], tokens=[1, 2, 3],
            step_logprobs=[-0.1, -2.0, 0.0], correct=1)


@pytest.mark.parametrize("field, value, named", [
    ("step_entropies", [], "p7/3"),
    ("step_entropies", [[0.5, 1.0, 0.0]], "p7/3"),
    ("step_entropies", [0.5, np.nan, 0.0], "p7/3"),
    ("step_entropies", [0.5, np.inf, 0.0], "p7/3"),
    ("step_entropies", [0.5, -1e-9, 0.0], "p7/3"),
    ("tokens", [1, 2], "p7/3"),
    ("step_logprobs", [-0.1, -2.0], "p7/3"),
    ("step_logprobs", [-0.1, 1e-9, 0.0], "p7/3"),
    ("step_logprobs", [-0.1, np.nan, 0.0], "p7/3"),
    ("domain", "code", "'code'"),
    ("correct", 2, "p7/3"),
], ids=["empty", "2d", "nan", "inf", "negative", "tokens_length", "logprobs_length",
        "positive_logprob", "nan_logprob", "unknown_domain", "correct_2"])
def test_trajectory_rejects_bad_input(field, value, named):
    Trajectory(**GOOD)  # the unmodified input is accepted
    with pytest.raises(ValidationError, match=named):
        Trajectory(**dict(GOOD, **{field: value}))
