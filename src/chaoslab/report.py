"""Test-report containers and deterministic JSON serialization.

Every verification suite in this package reduces to one or more
:class:`TestReport` values: a named scalar statistic compared against a
threshold.  The pass/fail verdict is always *derived* (``statistic <=
threshold``), never stored, so a report can not be inconsistent.

Serialization is canonical: keys are sorted and floats round-trip exactly, so
two runs with the same configuration and seed produce byte-identical JSON.
Anything time-dependent (wall-clock runtime, timestamps) lives in a separate
``meta`` block that determinism checks exclude.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = [
    "TestReport",
    "canonical_json",
    "report_payload",
    "version_string",
    "without_meta",
    "write_json",
]


def _jsonable(value: Any) -> Any:
    """Convert a value into plain JSON-serializable types, recursively."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):
        # numpy scalar or array
        try:
            return _jsonable(value.tolist())
        except (TypeError, ValueError):
            pass
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return str(value)


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Render ``payload`` as deterministic, human-readable JSON."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def write_json(payload: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(payload), encoding="utf-8")
    return path


@functools.cache
def version_string() -> str:
    """A git-describe-style version for embedding in reports, computed once per process."""
    from chaoslab import __version__

    root = Path(__file__).resolve().parents[2]
    try:
        described = subprocess.run(
            ["git", "describe", "--tags", "--always", "--dirty"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"chaoslab-{__version__}+g{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"chaoslab-{__version__}"


@dataclasses.dataclass(frozen=True)
class TestReport:
    """Outcome of one verification test.

    The verdict is ``pass`` iff ``statistic <= threshold`` (NaN fails).
    ``extras`` holds deterministic diagnostic values; ``meta`` holds
    time-dependent ones and is excluded from reproducibility comparisons.
    """

    __test__ = False  # not a pytest collection target despite the name

    name: str
    statistic: float
    threshold: float
    sample_sizes: tuple[int, ...] = ()
    seeds: tuple[int, ...] = ()
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)
    meta: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.threshold)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict[str, Any]:
        """Deterministic payload; ``meta`` is attached as an isolated block."""
        body: dict[str, Any] = {
            "name": self.name,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "sample_sizes": list(self.sample_sizes),
            "seeds": list(self.seeds),
            "verdict": self.verdict,
            "extras": _jsonable(self.extras),
        }
        body["meta"] = _jsonable(self.meta)
        return body

    def summary_line(self) -> str:
        return (
            f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: "
            f"statistic={self.statistic:.6g} threshold={self.threshold:.6g}"
        )


def report_payload(
    reports: Sequence[TestReport],
    config: Mapping[str, Any] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the top-level report document written by the CLI."""
    return {
        "version": version_string(),
        "config": _jsonable(dict(config or {})),
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
        "meta": _jsonable(dict(meta or {})),
    }


def without_meta(payload: Any) -> Any:
    """Recursively drop ``meta`` blocks, leaving only the deterministic content.

    Repeating a run with the same config and seed must reproduce this
    projection byte-for-byte (timestamps and runtimes live only in ``meta``).
    """
    if isinstance(payload, Mapping):
        return {k: without_meta(v) for k, v in payload.items() if k != "meta"}
    if isinstance(payload, (list, tuple)):
        return [without_meta(v) for v in payload]
    return payload
