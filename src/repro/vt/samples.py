"""Sample records for the VirusTotal simulator.

A :class:`Sample` is one unique file (identified by SHA-256, as in the
paper, which counts its 571 M samples "by hash").  The simulator never
materialises file *contents* — no analysis in the paper inspects bytes;
the file type tag, size, timestamps and latent ground truth are all the
downstream analyses consume.

Ground truth is latent: whether the file is malicious, which family it
belongs to, and the per-engine detection plan (built lazily by
:mod:`repro.vt.behavior`) that determines what each engine answers at any
point in simulated time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import InvalidHashError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vt.behavior import DetectionPlan

_HEX_DIGITS = frozenset("0123456789abcdef")


def sha256_of(token: str) -> str:
    """A deterministic synthetic SHA-256 hex digest for ``token``.

    Real samples are hashed by content; synthetic samples are hashed by a
    unique token (scenario seed + sample index), which preserves the only
    property the analyses rely on: hashes are unique, stable identifiers.
    """
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def validate_sha256(value: str) -> str:
    """Validate and normalise a SHA-256 hex digest.

    Returns the lowercase digest, raising
    :class:`~repro.errors.InvalidHashError` for malformed input — the
    simulator's API layer mirrors the real service's 400 response here.
    """
    candidate = value.strip().lower()
    if len(candidate) != 64 or not set(candidate) <= _HEX_DIGITS:
        raise InvalidHashError(value)
    return candidate


@dataclass
class Sample:
    """One unique file known to the simulated VirusTotal service.

    Timestamps are simulator minutes (see :mod:`repro.vt.clock`); a
    negative ``first_seen`` means the file predates the collection window,
    i.e. it is *not* one of the paper's 91.76 % "fresh" samples.

    ``times_submitted``, ``last_submission_date`` and ``last_analysis_date``
    are the three mutable report fields whose API-dependent update rules
    the paper's Table 1 documents; they are owned and mutated exclusively
    by :class:`~repro.vt.service.VirusTotalService`.
    """

    sha256: str
    file_type: str
    malicious: bool
    first_seen: int
    size_bytes: int = 65536
    family: str | None = None

    # Mutable service-side state (Table 1 fields).
    times_submitted: int = 0
    last_submission_date: int | None = None
    last_analysis_date: int | None = None

    # Per-engine behaviour (repro.vt.behavior).  The service builds the
    # plan for each scan call, draws from it and lets it go.  A caller may
    # attach a plan itself (tests pass hand-made plans this way); the
    # service then scans with it, and it stays.
    plan: "DetectionPlan | None" = field(default=None, repr=False, compare=False)
    #: ``random()`` doubles this sample's scans have drawn from its
    #: ``scan_rng``: a plan rebuilt after being let go skips that many to
    #: resume the stream where the last scan left it.  Only the service
    #: moves it, so it is no constructor argument.
    scan_draws: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sha256 = validate_sha256(self.sha256)
        if self.size_bytes <= 0:
            raise ValueError(f"sample size must be positive: {self.size_bytes}")

    @property
    def fresh(self) -> bool:
        """Whether the sample was first submitted inside the window."""
        return self.first_seen >= 0

    def clone(self) -> "Sample":
        """A pristine copy with the service-side state reset.

        Identity and latent ground truth (hash, type, truth, timestamps,
        size, family) carry over; the Table 1 mutable fields, the
        detection plan and ``scan_draws`` do not.  Experiment runners
        register clones so a generator's spec objects are never mutated
        by a run — re-running from the same specs starts from the same
        state.
        """
        return Sample(
            sha256=self.sha256,
            file_type=self.file_type,
            malicious=self.malicious,
            first_seen=self.first_seen,
            size_bytes=self.size_bytes,
            family=self.family,
        )

    def record_submission(self, timestamp: int) -> None:
        """Apply the Upload-API submission side effects (Table 1 row 1)."""
        self.times_submitted += 1
        self.last_submission_date = timestamp

    def record_analysis(self, timestamp: int) -> None:
        """Apply the analysis side effect shared by Upload and Rescan."""
        self.last_analysis_date = timestamp
