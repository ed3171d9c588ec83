"""The antivirus engine fleet behind the VirusTotal simulator.

VirusTotal aggregates verdicts from 70+ commercial engines.  The paper
treats each engine as a black box emitting ``malicious`` / ``benign`` /
``undetected`` per scan, and identifies three mechanisms behind label
dynamics (Observation 7): *engine latency* (signatures arrive after the
sample does), *engine update* (a verdict only changes when the engine ships
a new signature database) and *engine activity* (engines time out and
return nothing).  It further confirms (§7.2, after Sebastián et al.) that
groups of engines copy each other's labels.

This module models exactly those mechanisms.  Each :class:`Engine` carries:

* ``sensitivity`` — how likely it is to be among a sample's eventual
  detectors;
* per-category ``affinity`` — specialisation by file-type category (an
  EDR-style engine is PE-only, a mobile engine is Android-only);
* an update schedule — ``signature`` engines change verdicts only at
  update times, ``cloud`` engines can change between updates (their
  visible signature version moves rarely);
* ``activity`` — per-scan participation probability (the undetected/-1
  channel);
* ``churn`` — proneness to mid-observation verdict transitions, the knob
  behind Figure 10's flippy engines (Arcabit, F-Secure, Lionic) versus
  stable ones (Jiangmin, AhnLab);
* an optional copy rule — follower engines replicate a leader's verdict
  with high fidelity, optionally restricted to categories or exact file
  types (the paper's Lionic–VirIT correlation exists only for GZIP).

The default fleet (:func:`default_fleet`) contains 70 engines whose names
match the paper's figures so the correlation analyses recover the published
groups.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.errors import ConfigError
from repro.vt import clock
from repro.vt.filetypes import CATEGORIES

#: Default per-scan participation probability.
DEFAULT_ACTIVITY = 0.985


@dataclass(frozen=True)
class CopyRule:
    """A label-copying relationship between a follower and its leader.

    ``categories``/``file_types`` restrict where the rule applies; when both
    are ``None`` the follower copies everywhere.  ``fidelity`` is the
    probability the follower reproduces the leader's verdict on a given
    sample (otherwise it falls back to its own independent behaviour).
    """

    leader: str
    fidelity: float = 0.985
    categories: frozenset[str] | None = None
    file_types: frozenset[str] | None = None

    def applies_to(self, file_type: str, category: str) -> bool:
        """Whether the rule is active for a sample of the given type."""
        if self.file_types is not None:
            return file_type in self.file_types
        if self.categories is not None:
            return category in self.categories
        return True


@dataclass(frozen=True)
class Engine:
    """Static behavioural parameters of one antivirus engine."""

    name: str
    #: Base weight for being among a sample's eventual detectors.
    sensitivity: float = 0.55
    #: Per-category affinity multipliers; categories absent default to 1.0.
    affinity: dict[str, float] = field(default_factory=dict)
    #: True for cloud/reputation engines whose verdicts can move between
    #: visible signature updates (the ~40 % of flips the paper found with
    #: no co-occurring engine update).
    cloud: bool = False
    #: Mean days between signature-database updates.
    update_interval_days: float = 2.0
    #: Mean days between *visible* engine-version bumps — the version
    #: field embedded in scan reports.  Real engines push DB deltas daily
    #: but bump the reported version far less often, which is why the
    #: paper finds only ~60 % of flips co-occurring with a version change
    #: (§5.5).  Defaults to a major release roughly monthly.
    version_interval_days: float = 28.0
    #: Per-scan participation probability (1 - timeout rate).
    activity: float = DEFAULT_ACTIVITY
    #: Proneness to mid-observation verdict churn (late FP episodes and
    #: late detections); 1.0 is fleet-typical.
    churn: float = 1.0
    #: Per-category churn multipliers (e.g. Arcabit on ELF).
    churn_affinity: dict[str, float] = field(default_factory=dict)
    #: Weight for false-positive episodes on benign samples.
    fp_proneness: float = 1.0
    #: Optional copy rule making this engine a follower of another.
    copies: CopyRule | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.activity <= 1.0:
            raise ConfigError(f"{self.name}: activity must be in (0,1]")
        if self.sensitivity < 0:
            raise ConfigError(f"{self.name}: sensitivity must be >= 0")
        if self.update_interval_days <= 0:
            raise ConfigError(f"{self.name}: update_interval_days must be > 0")
        for cat in list(self.affinity) + list(self.churn_affinity):
            if cat not in CATEGORIES:
                raise ConfigError(f"{self.name}: unknown category {cat!r}")

    def affinity_for(self, category: str) -> float:
        """Detection affinity multiplier for a file-type category."""
        return self.affinity.get(category, 1.0)

    def churn_for(self, category: str) -> float:
        """Churn multiplier for a file-type category."""
        return self.churn * self.churn_affinity.get(category, 1.0)


def _bitdefender_oem(name: str, sensitivity: float = 0.6) -> Engine:
    """An engine in the BitDefender OEM family (Tables 4-8 group)."""
    return Engine(
        name,
        sensitivity=sensitivity,
        update_interval_days=1.5,
        copies=CopyRule("BitDefender", fidelity=0.975),
    )


def _fleet_engines() -> list[Engine]:
    """The default 70-engine fleet, names matching the paper's figures."""
    pe_only = {c: 0.05 for c in CATEGORIES if c != "pe"}
    engines = [
        # --- Major independent engines -------------------------------
        Engine("Kaspersky", sensitivity=0.85, cloud=True,
               update_interval_days=45.0),
        Engine("Microsoft", sensitivity=0.82, cloud=True, churn=1.5,
               update_interval_days=20.0,
               affinity={"pe": 1.25, "image": 0.5}),
        Engine("Symantec", sensitivity=0.78, update_interval_days=1.0),
        Engine("Sophos", sensitivity=0.75, update_interval_days=1.5),
        Engine("ESET-NOD32", sensitivity=0.83, update_interval_days=1.0,
               copies=CopyRule("K7AntiVirus", fidelity=0.86,
                               categories=frozenset({"pe"}))),
        Engine("DrWeb", sensitivity=0.70, update_interval_days=1.5),
        Engine("Ikarus", sensitivity=0.66, update_interval_days=2.0,
               fp_proneness=1.6),
        Engine("McAfee", sensitivity=0.74, update_interval_days=1.5),
        Engine("McAfee-GW-Edition", sensitivity=0.70,
               update_interval_days=1.5,
               copies=CopyRule("McAfee", fidelity=0.90,
                               categories=frozenset({"android"}))),
        Engine("Fortinet", sensitivity=0.72, update_interval_days=1.5),
        Engine("Cyren", sensitivity=0.62, update_interval_days=2.0,
               fp_proneness=1.3,
               copies=CopyRule("Fortinet", fidelity=0.92,
                               categories=frozenset({"pe"}))),
        Engine("F-Secure", sensitivity=0.68, cloud=True, churn=2.2,
               update_interval_days=25.0),
        Engine("Panda", sensitivity=0.60, cloud=True,
               update_interval_days=30.0),
        Engine("Comodo", sensitivity=0.58, update_interval_days=2.5),
        Engine("Malwarebytes", sensitivity=0.55, cloud=True,
               update_interval_days=25.0, affinity={"pe": 1.2}),
        # --- BitDefender OEM family (Tables 4-8, Group "MicroWorld-
        #     eScan / BitDefender / GData / FireEye / MAX / ALYac /
        #     Ad-Aware / Emsisoft") --------------------------------------
        Engine("BitDefender", sensitivity=0.84, cloud=True,
               update_interval_days=40.0),
        _bitdefender_oem("MicroWorld-eScan"),
        _bitdefender_oem("GData", sensitivity=0.65),
        _bitdefender_oem("FireEye", sensitivity=0.66),
        _bitdefender_oem("MAX"),
        _bitdefender_oem("ALYac"),
        _bitdefender_oem("Ad-Aware"),
        _bitdefender_oem("Emsisoft", sensitivity=0.64),
        # Arcabit is BitDefender-based only for Android in the paper's
        # Appendix; elsewhere it is independent and notoriously flippy on
        # ELF (Figure 10: 25.8 % flip ratio on ELF executables).
        Engine("Arcabit", sensitivity=0.58, update_interval_days=2.0,
               churn=2.5, churn_affinity={"elf": 4.0, "android": 0.05},
               fp_proneness=1.8,
               copies=CopyRule("BitDefender", fidelity=0.90,
                               categories=frozenset({"android"}))),
        # --- Avast family --------------------------------------------
        Engine("Avast", sensitivity=0.80, update_interval_days=1.0),
        Engine("AVG", sensitivity=0.79, update_interval_days=1.0,
               copies=CopyRule("Avast", fidelity=0.985)),
        Engine("Avast-Mobile", sensitivity=0.55, update_interval_days=2.0,
               affinity={"android": 1.6, "pe": 0.02, "elf": 0.05,
                         "document": 0.05, "web": 0.05, "script": 0.05,
                         "archive": 0.05, "image": 0.02},
               # Copies Avast directly (AVG is itself an Avast follower,
               # and copy chains are capped at depth 1); the paper's
               # AVG / Avast-Mobile DEX correlation emerges transitively.
               copies=CopyRule("Avast", fidelity=0.96,
                               categories=frozenset({"android"}))),
        # --- Next-gen / ML engines (Paloalto-APEX pair: rho 0.9933) ---
        Engine("Paloalto", sensitivity=0.60, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        Engine("APEX", sensitivity=0.58, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only),
               copies=CopyRule("Paloalto", fidelity=0.993)),
        Engine("Webroot", sensitivity=0.56, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        Engine("CrowdStrike", sensitivity=0.57, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only),
               copies=CopyRule("Webroot", fidelity=0.975)),
        Engine("Elastic", sensitivity=0.55, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        Engine("SentinelOne", sensitivity=0.58, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        Engine("Cylance", sensitivity=0.54, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only),
               fp_proneness=1.7),
        Engine("Acronis", sensitivity=0.40, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        # --- Avira family (Cynet copies Avira except on PE, matching
        #     the paper's Appendix: strong overall but not on Win32 EXE) -
        Engine("Avira", sensitivity=0.81, update_interval_days=1.0),
        Engine("Cynet", sensitivity=0.62, cloud=True,
               update_interval_days=20.0,
               copies=CopyRule("Avira", fidelity=0.97,
                               categories=frozenset(
                                   {"android", "document", "web", "script",
                                    "archive", "image", "elf", "other"}))),
        # --- The web cluster (HTML Table 6 group 5) ------------------
        Engine("Rising", sensitivity=0.60, update_interval_days=2.0,
               copies=CopyRule("Avira", fidelity=0.88,
                               categories=frozenset({"web"}))),
        Engine("CAT-QuickHeal", sensitivity=0.58, update_interval_days=2.0,
               copies=CopyRule("Avira", fidelity=0.86,
                               categories=frozenset({"web"}))),
        Engine("NANO-Antivirus", sensitivity=0.57, update_interval_days=2.0,
               fp_proneness=1.4,
               copies=CopyRule("Avira", fidelity=0.87,
                               categories=frozenset({"web"}))),
        Engine("AhnLab-V3", sensitivity=0.63, update_interval_days=1.5,
               churn=0.35,
               copies=CopyRule("Avira", fidelity=0.86,
                               categories=frozenset({"web"}))),
        # --- Small pairs from the paper's figures --------------------
        Engine("K7AntiVirus", sensitivity=0.66, update_interval_days=1.5),
        Engine("K7GW", sensitivity=0.65, update_interval_days=1.5,
               copies=CopyRule("K7AntiVirus", fidelity=0.98)),
        Engine("TrendMicro", sensitivity=0.72, update_interval_days=1.5),
        Engine("TrendMicro-HouseCall", sensitivity=0.70,
               update_interval_days=1.5,
               copies=CopyRule("TrendMicro", fidelity=0.97)),
        Engine("F-Prot", sensitivity=0.52, update_interval_days=3.0),
        Engine("Babable", sensitivity=0.50, update_interval_days=3.0,
               copies=CopyRule("F-Prot", fidelity=0.97)),
        Engine("Alibaba", sensitivity=0.50, cloud=True,
               update_interval_days=30.0,
               copies=CopyRule("Webroot", fidelity=0.90,
                               categories=frozenset({"script"}))),
        # Lionic-VirIT correlate only on GZIP (paper §7.2.2).
        Engine("VirIT", sensitivity=0.48, update_interval_days=3.0),
        Engine("Lionic", sensitivity=0.55, update_interval_days=2.0,
               churn=2.0, fp_proneness=1.5,
               copies=CopyRule("VirIT", fidelity=0.92,
                               file_types=frozenset({"GZIP"}))),
        # --- Stable engines (Figure 10: few flips) -------------------
        Engine("Jiangmin", sensitivity=0.52, update_interval_days=4.0,
               churn=0.15),
        Engine("AhnLab", sensitivity=0.60, update_interval_days=2.0,
               churn=0.2),
        # --- Remaining independents to fill the fleet to 70 ----------
        Engine("ClamAV", sensitivity=0.45, update_interval_days=2.0),
        Engine("VBA32", sensitivity=0.50, update_interval_days=3.0),
        Engine("Zillya", sensitivity=0.48, update_interval_days=3.0),
        Engine("Tencent", sensitivity=0.62, update_interval_days=1.5),
        Engine("Baidu", sensitivity=0.45, update_interval_days=5.0),
        Engine("Qihoo-360", sensitivity=0.64, update_interval_days=1.5),
        Engine("Bkav", sensitivity=0.42, update_interval_days=4.0,
               fp_proneness=1.5),
        Engine("ViRobot", sensitivity=0.46, update_interval_days=3.0),
        Engine("TotalDefense", sensitivity=0.40, update_interval_days=4.0),
        Engine("SUPERAntiSpyware", sensitivity=0.38,
               update_interval_days=4.0, affinity={"pe": 1.1}),
        Engine("Yandex", sensitivity=0.52, update_interval_days=2.5),
        Engine("eGambit", sensitivity=0.40, cloud=True,
               update_interval_days=30.0, affinity=dict(pe_only)),
        Engine("MaxSecure", sensitivity=0.45, update_interval_days=3.0,
               fp_proneness=1.6),
        Engine("Sangfor", sensitivity=0.55, cloud=True,
               update_interval_days=25.0, affinity={"pe": 1.15}),
        Engine("Zoner", sensitivity=0.35, update_interval_days=5.0),
        Engine("TACHYON", sensitivity=0.42, update_interval_days=4.0),
        Engine("Gridinsoft", sensitivity=0.44, update_interval_days=3.0,
               fp_proneness=1.4),
        Engine("Kingsoft", sensitivity=0.40, update_interval_days=4.0),
    ]
    return engines


#: The default fleet's engine names, in fleet order.  They do not depend
#: on the schedule seed, so reading a saved store needs no fleet.
ENGINE_NAMES: tuple[str, ...] = tuple(e.name for e in _fleet_engines())


class EngineFleet:
    """An immutable, ordered collection of engines plus update schedules.

    The fleet fixes the engine order used throughout the simulator: scan
    reports store per-engine labels as a dense vector indexed by this
    order, and the analysis layer maps names to columns through
    :attr:`index`.

    Update schedules are generated once per fleet from ``seed``: signature
    engines update every ~1-3 days, cloud engines bump their *visible*
    version only monthly.  Schedules extend ~600 days before the collection
    window so samples first seen before the window have well-defined
    versions.
    """

    #: How far before the collection window update schedules extend (min).
    SCHEDULE_BACKFILL = clock.minutes(days=600)
    #: How far past the window update schedules extend (minutes).
    SCHEDULE_OVERRUN = clock.minutes(days=60)

    def __init__(self, engines: list[Engine], seed: int = 0) -> None:
        if len({e.name for e in engines}) != len(engines):
            raise ConfigError("duplicate engine names in fleet")
        self.engines: tuple[Engine, ...] = tuple(engines)
        self.names: tuple[str, ...] = tuple(e.name for e in engines)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.seed = seed
        self._validate_copy_rules()
        #: Per-engine participation probabilities, in fleet order.
        self.activity = np.array([e.activity for e in self.engines])
        self._schedules: list[list[int]] = [
            self._build_schedule(e) for e in self.engines
        ]
        # Visible version bumps are a subsample of the delivery schedule:
        # every k-th DB push ships as a new engine version.
        self._version_schedules: list[list[int]] = []
        for engine, schedule in zip(self.engines, self._schedules, strict=False):
            stride = max(1, round(engine.version_interval_days
                                  / engine.update_interval_days))
            self._version_schedules.append(schedule[::stride])
        # Decision order: leaders before followers, so a follower can read
        # its leader's already-computed verdict.
        followers = [i for i, e in enumerate(self.engines) if e.copies]
        leaders = [i for i, e in enumerate(self.engines) if not e.copies]
        self.decision_order: tuple[int, ...] = tuple(leaders + followers)

    def __len__(self) -> int:
        return len(self.engines)

    def __iter__(self):
        return iter(self.engines)

    def __getitem__(self, key: int | str) -> Engine:
        if isinstance(key, str):
            return self.engines[self.index[key]]
        return self.engines[key]

    def _validate_copy_rules(self) -> None:
        for engine in self.engines:
            rule = engine.copies
            if rule is None:
                continue
            if rule.leader not in self.index:
                raise ConfigError(
                    f"{engine.name} copies unknown engine {rule.leader!r}"
                )
            leader = self[rule.leader]
            if leader.copies is not None:
                raise ConfigError(
                    f"copy chain deeper than 1: {engine.name} -> "
                    f"{rule.leader} -> {leader.copies.leader}"
                )
            if not 0.0 <= rule.fidelity <= 1.0:
                raise ConfigError(f"{engine.name}: fidelity must be in [0,1]")

    def _build_schedule(self, engine: Engine) -> list[int]:
        rng = random.Random(f"fleet:{self.seed}:updates:{engine.name}")
        mean = clock.minutes(days=engine.update_interval_days)
        floor = clock.minutes(hours=6)
        t = -self.SCHEDULE_BACKFILL
        schedule = []
        horizon = clock.WINDOW_MINUTES + self.SCHEDULE_OVERRUN
        while t < horizon:
            t += max(floor, int(rng.expovariate(1.0 / mean)))
            schedule.append(t)
        return schedule

    def update_schedule(self, name: str) -> list[int]:
        """All update timestamps (minutes) for the named engine."""
        return list(self._schedules[self.index[name]])

    def version_at(self, engine_idx: int, timestamp: int) -> int:
        """Visible engine version at ``timestamp``.

        Versions are consecutive integers counting visible version bumps;
        reports embed them so the analysis layer can check whether a flip
        co-occurred with an engine update (§5.5).  This tracks the
        *visible* schedule — a subsample of the faster DB-push schedule
        that actually delivers verdict changes.
        """
        return bisect_right(self._version_schedules[engine_idx], timestamp)

    @cached_property
    def _version_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The visible version schedules, compiled once.

        The sorted union of every engine's bump times, and a
        ``(bumps + 1) × engines`` table whose row
        ``searchsorted(times, t, "right")`` is the version vector at
        ``t`` — row 0 is the all-zero vector before the first bump.
        """
        times = np.unique(np.concatenate(
            [np.zeros(0, np.int64), *self._version_schedules]))
        table = np.zeros((len(times) + 1, len(self)), "<u4")
        for idx, schedule in enumerate(self._version_schedules):
            table[1:, idx] = np.searchsorted(schedule, times, side="right")
        return times, table

    def versions_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Version vectors at each timestamp, ``[len(timestamps), engines]``.

        Row ``i`` equals ``[version_at(e, timestamps[i]) for e in
        range(len(self))]``: one ``searchsorted`` plus a row gather.
        """
        times, table = self._version_table
        return table[times.searchsorted(timestamps, side="right")]

    def version_schedule(self, name: str) -> list[int]:
        """All visible version-bump timestamps for the named engine."""
        return list(self._version_schedules[self.index[name]])

    def next_update_after(self, engine_idx: int, timestamp: int) -> int:
        """First update time strictly after ``timestamp``.

        Used to model signature-channel delivery: a latent detection only
        becomes visible once the engine ships its next update.
        """
        schedule = self._schedules[engine_idx]
        i = bisect_right(schedule, timestamp)
        if i < len(schedule):
            return schedule[i]
        # Past the schedule horizon; deliver immediately.
        return timestamp

    def detection_weights(self, category: str) -> list[float]:
        """Per-engine weights for being among a sample's detectors."""
        return [e.sensitivity * e.affinity_for(category) for e in self.engines]


def default_fleet(seed: int = 0, copy_rules: bool = True) -> EngineFleet:
    """Build the default 70-engine fleet with the given schedule seed.

    ``copy_rules=False`` strips every copy relationship, yielding a fleet
    of fully independent engines — the ablation baseline for the §7.2
    correlation analysis (without copying, no strong correlations should
    survive).
    """
    engines = _fleet_engines()
    if not copy_rules:
        engines = [replace(e, copies=None) for e in engines]
    fleet = EngineFleet(engines, seed=seed)
    if len(fleet) != 70:
        raise AssertionError(f"default fleet must have 70 engines, has {len(fleet)}")
    return fleet
