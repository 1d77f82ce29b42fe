"""Bit-for-bit comparison of served answers with the direct ``SigmaTyper`` call.

Answers are compared as the JSON the front end sends
(``TablePrediction.to_dict()``), minus two fields that are not predictions:
``table_name`` carries the request id, and ``step_seconds`` is the wall time
each cascade step took.  Floats survive the JSON round trip exactly, so equal
dicts mean bit-identical scores.
"""

from __future__ import annotations

import hashlib
import json

IGNORED_FIELDS = ("table_name", "step_seconds")


def normalize(prediction: dict) -> dict:
    return {key: value for key, value in prediction.items() if key not in IGNORED_FIELDS}


def matches(answer: dict | None, expected: dict) -> bool:
    """Whether a served answer equals the oracle's (``None`` = no answer)."""
    return answer is not None and normalize(answer) == normalize(expected)


def fingerprint(answers: dict[str, dict | None]) -> str:
    """Digest of ``request id -> answer``; equal across traced and untraced runs."""
    canonical = json.dumps(
        {rid: normalize(answer) if answer is not None else None for rid, answer in sorted(answers.items())},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
