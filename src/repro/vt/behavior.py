"""Per-sample, per-engine verdict timelines.

This is the causal core of the simulator.  For every sample the fleet
builds a :class:`DetectionPlan`: for each engine, a (usually empty or
1-2 element) list of verdict *transitions* over simulated time.  The plan
encodes exactly the mechanisms the paper identifies as the sources of
label dynamics (Observation 7):

* **engine latency** — detectors of a fresh malicious sample acquire it at
  staggered onset times after first submission, so AV-Rank climbs;
* **engine update** — signature-channel engines only deliver a new verdict
  at their next signature-database update, so their flips co-occur with a
  visible version change (the ~60 % the paper measured), while cloud
  engines flip between updates (the other ~40 %);
* **engine activity** — independently of the plan, each engine times out
  per scan with probability ``1 - activity`` and reports *undetected*;
* **false-positive episodes** — benign samples are occasionally flagged by
  a few engines and later retracted, and flippy engines (high ``churn``)
  churn more, per file-type category (Figure 10's Arcabit-on-ELF);
* **label copying** — follower engines replicate their leader's timeline
  with high fidelity where their copy rule applies (Figure 11's groups).

Because onsets are monotone (0→1 once) and retractions only follow
detections that predate the observation window, an engine's *observed*
label sequence is monotone except for deliberately injected hazards —
reproducing the paper's surprising finding that 0→1→0 / 1→0→1 "hazard
flips" are vanishingly rare in organic scan data (§7.1.1).

All randomness is drawn from per-sample streams keyed by the scenario seed
and the sample hash, so a plan is a pure function of (scenario, sample).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.vt import clock
from repro.vt.engines import EngineFleet
from repro.vt.filetypes import CATEGORIES, FILE_TYPES, FileTypeProfile
from repro.vt.samples import Sample

Transitions = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BehaviorParams:
    """Fleet-wide behavioural tunables (DESIGN.md §4 calibration surface).

    Everything here is dimensionless or in days; scenario presets override
    individual fields to move headline statistics (stable/dynamic split,
    flip direction ratio, stabilisation timing) without touching code.
    """

    #: Mean extra detectors beyond 1 in low-mode plateaus (PUA-style).
    low_mode_mean_extra: float = 1.6
    #: Cap on low-mode plateau size.
    low_mode_cap: int = 8
    #: Beta concentration for plateau fraction draws (high mode).
    plateau_concentration: float = 4.0
    #: Beta concentration for initial-detection fraction draws.
    initial_concentration: float = 4.0
    #: Probability a *low-mode* (PUA-style, few-engine) sample is already
    #: known at first submission.  Low-mode malware circulates in old
    #: signature databases, so this is high — which is what keeps the
    #: gray fraction small at low thresholds (Figure 8).
    low_mode_known_prob: float = 0.40
    #: Minimum engines already detecting a fresh high-mode sample at its
    #: first scan (commodity malware is never submitted fully unseen);
    #: keeps dynamic trajectories from crossing low thresholds.
    initial_floor: int = 12
    #: Known malware was signatured this long before first submission.
    known_onset_min_days: float = 5.0
    known_onset_max_days: float = 400.0
    #: Initially-detected engines acquired the sample this recently.
    initial_onset_max_days: float = 30.0
    #: Probability an initially-detecting engine later retracts (scaled by
    #: the engine's churn); the source of organic 1->0 flips.
    retract_prob: float = 0.16
    #: Mean days until a retraction lands.
    retract_mean_days: float = 25.0
    #: Per-engine late-join intensity for non-detectors (scaled by churn).
    late_join_rate: float = 0.006
    #: Late joiners arrive uniformly within this horizon (days).
    late_join_max_days: float = 400.0
    #: Fraction of high-mode pending detectors that are slow learners,
    #: and how much their growth timescale stretches.  Slow learners make
    #: AV-Rank differences keep growing with the scan interval over the
    #: full 14-month window (Figure 7's Spearman correlation).
    slow_growth_frac: float = 0.35
    slow_growth_mult: float = 8.0
    #: Mean engines involved in a benign false-positive episode (beyond 1).
    benign_fp_extra_mean: float = 0.8
    benign_fp_cap: int = 4
    #: FP episodes start uniformly within this many days of first_seen.
    benign_fp_start_max_days: float = 30.0
    #: Mean FP episode duration (days).
    benign_fp_duration_days: float = 25.0
    #: Per-engine churn-driven FP intensity on benign samples.
    benign_churn_fp_rate: float = 0.003
    #: Share of verdict changes that signature engines deliver through
    #: their cloud/reputation channel, i.e. *between* visible database
    #: updates.  Drives the paper's finding that only ~60 % of flips
    #: co-occur with an engine update (§5.5 cause ii vs cause i).
    hybrid_cloud_frac: float = 0.30
    #: Probability of injecting one hazard dip (0->1->0) per sample; the
    #: paper found 9 hazards in 109 M reports, i.e. effectively zero.
    hazard_rate: float = 1e-6
    #: Probability a malicious sample has one *flapping* engine — a cloud
    #: verdict oscillating with day-scale dips for a few weeks.  Organic
    #: scan gaps (median ~1 week) alias the dips away almost entirely,
    #: while a daily-rescan protocol (Zhu et al.) captures every edge —
    #: the §7.1.1 disagreement, reproduced by the rescan-cadence ablation.
    flap_rate: float = 0.012
    #: Mean number of dips in a flapping episode.
    flap_dips_mean: float = 5.0

    def __post_init__(self) -> None:
        if self.retract_prob < 0 or self.late_join_rate < 0:
            raise ConfigError("behaviour rates must be non-negative")
        if self.hazard_rate < 0 or self.hazard_rate > 1:
            raise ConfigError("hazard_rate must be in [0,1]")


def _beta(rng: random.Random, mean: float, concentration: float) -> float:
    """Beta draw with the given mean; degenerate means short-circuit."""
    if mean <= 0.0:
        return 0.0
    if mean >= 1.0:
        return 1.0
    return rng.betavariate(mean * concentration, (1.0 - mean) * concentration)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth Poisson sampler; fine for the small rates used here."""
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


class PlanTable(NamedTuple):
    """A :class:`DetectionPlan` compiled for one fleet width.

    ``times`` are the sorted distinct transition times; ``rows`` holds
    one latent-verdict row per interval, so row ``bisect_right(times,
    t)`` is every engine's verdict at ``t`` (row 0, before the first
    transition, is all benign).  ``followers`` and ``leaders`` are the
    plan's fired copy rules in follower order.
    """

    times: list[int]
    rows: np.ndarray       #: uint8 [len(times) + 1, width]
    followers: np.ndarray  #: int64 [copied]
    leaders: np.ndarray    #: int64 [copied]

    @classmethod
    def compile(cls, plan: "DetectionPlan", width: int) -> "PlanTable":
        # Applying every (when, verdict, engine) change in sorted order
        # makes the last transition at or before t win, with ties at one
        # time resolved in (when, verdict) order.
        changes = sorted([(when, verdict, idx)
                          for idx, trans in plan.transitions.items()
                          for when, verdict in trans])
        row = bytearray(width)
        rows = bytearray(width)
        times: list[int] = []
        for when, verdict, idx in changes:
            if not times or when != times[-1]:
                if times:
                    rows += row
                times.append(when)
            row[idx] = verdict
        if times:
            rows += row
        followers = sorted(plan.copied)
        return cls(times,
                   np.frombuffer(bytes(rows), np.uint8).reshape(-1, width),
                   np.array(followers, np.int64),
                   np.array([plan.copied[f] for f in followers], np.int64))


@dataclass
class DetectionPlan:
    """Resolved verdict timelines for one sample across the fleet.

    ``transitions[engine_idx]`` is a time-ordered tuple of
    ``(timestamp, verdict)`` pairs; the verdict before the first pair is
    benign (0).  Engines absent from the mapping answer benign forever.
    ``scan_rng`` is the per-sample stream the service consumes for
    activity dropout, so a sample's scan sequence is deterministic.
    """

    transitions: dict[int, Transitions]
    scan_rng: random.Random = field(repr=False)
    #: Followers whose copy rule fired on this sample, mapped to their
    #: leader's index.  OEM engines share scanning infrastructure, so the
    #: service also correlates their timeout behaviour with the leader's —
    #: without this, independent per-engine timeouts would cap copier
    #: correlations far below the paper's 0.95-0.99 (Figure 11).
    copied: dict[int, int] = field(default_factory=dict)

    def label_at(self, engine_idx: int, timestamp: int) -> int:
        """Latent verdict (0/1) of an engine at ``timestamp``.

        Compiles the plan on every call; to look up many engines or
        times, :meth:`PlanTable.compile` it once instead.
        """
        if engine_idx not in self.transitions:
            return 0
        table = PlanTable.compile(self, max(self.transitions) + 1)
        return int(table.rows[bisect_right(table.times, timestamp),
                              engine_idx])

    def eventual_detectors(self) -> set[int]:
        """Engines whose final latent verdict is malicious."""
        return {
            idx
            for idx, trans in self.transitions.items()
            if trans and trans[-1][1] == 1
        }


class BehaviorContext:
    """Shared state for plan construction: fleet, params and weight caches.

    Per-category weight vectors (detection, churn, false-positive) are
    computed once; plan construction for millions of samples then only
    draws random numbers.
    """

    def __init__(self, fleet: EngineFleet, params: BehaviorParams, seed: int) -> None:
        self.fleet = fleet
        self.params = params
        self.seed = seed
        n = len(fleet)
        self.engine_indices = tuple(range(n))
        self.detection_weights: dict[str, list[float]] = {}
        self.mean_detection_weight: dict[str, float] = {}
        self.churn_weights: dict[str, list[float]] = {}
        self.churn_total: dict[str, float] = {}
        self.fp_weights: dict[str, list[float]] = {}
        for category in CATEGORIES:
            dw = fleet.detection_weights(category)
            positive = [w for w in dw if w > 0.05]
            self.detection_weights[category] = dw
            self.mean_detection_weight[category] = (
                sum(positive) / len(positive) if positive else 1.0
            )
            cw = [e.churn_for(category) for e in fleet.engines]
            self.churn_weights[category] = cw
            self.churn_total[category] = sum(cw)
            self.fp_weights[category] = [
                e.fp_proneness * e.affinity_for(category) for e in fleet.engines
            ]

    def plan_rng(self, sample: Sample) -> random.Random:
        return random.Random(f"{self.seed}:plan:{sample.sha256}")

    def scan_rng(self, sample: Sample) -> random.Random:
        return random.Random(f"{self.seed}:scan:{sample.sha256}")


def _aligned(
    ctx: BehaviorContext,
    engine_idx: int,
    raw_time: int,
    rng: random.Random,
) -> int:
    """Delivery time of a verdict change for the given engine.

    Cloud engines always deliver immediately; signature engines deliver
    at their next database update (the paper's engine-update flip cause)
    except for the hybrid share of changes that ride their cloud
    reputation channel.
    """
    if ctx.fleet.engines[engine_idx].cloud:
        return raw_time
    if rng.random() < ctx.params.hybrid_cloud_frac:
        return raw_time
    return ctx.fleet.next_update_after(engine_idx, raw_time)


def _select_low_mode_detectors(
    ctx: BehaviorContext, rng: random.Random, category: str
) -> set[int]:
    params = ctx.params
    count = 2 + min(int(rng.expovariate(1.0 / params.low_mode_mean_extra)),
                    params.low_mode_cap)
    weights = ctx.detection_weights[category]
    if not any(weights):
        return set()
    picks = set(rng.choices(ctx.engine_indices, weights=weights, k=count))
    # Weighted draws can collide; top up so even PUA-style samples keep at
    # least two detectors (single-detector samples would oscillate across
    # t=1 on every engine timeout, inflating the paper's low-t gray band).
    tries = 0
    while len(picks) < 2 and tries < 8:
        picks.update(rng.choices(ctx.engine_indices, weights=weights, k=1))
        tries += 1
    return picks


def _select_high_mode_detectors(
    ctx: BehaviorContext, rng: random.Random, category: str, plateau_frac: float
) -> set[int]:
    weights = ctx.detection_weights[category]
    mean_w = ctx.mean_detection_weight[category]
    detectors = set()
    for idx, weight in enumerate(weights):
        p = plateau_frac * weight / mean_w
        if p > 0 and rng.random() < p:
            detectors.add(idx)
    return detectors


def _malicious_transitions(
    ctx: BehaviorContext,
    rng: random.Random,
    sample: Sample,
    profile: FileTypeProfile,
) -> dict[int, list[tuple[int, int]]]:
    params = ctx.params
    category = profile.category
    first_seen = sample.first_seen
    low_mode = rng.random() < profile.plateau_low_weight
    # Known probability depends on the plateau mode: PUA-style low-mode
    # samples are almost always already signatured, while broad-coverage
    # campaigns are the ones engines chase after first submission.
    if low_mode:
        known = rng.random() < params.low_mode_known_prob
        detectors = sorted(_select_low_mode_detectors(ctx, rng, category))
    else:
        known = rng.random() < profile.known_prob
        frac = _beta(rng, profile.plateau_high_frac, params.plateau_concentration)
        detectors = sorted(_select_high_mode_detectors(ctx, rng, category, frac))

    # Split detectors into initially-known and late-arriving.  The count
    # of initial detectors is controlled directly (fraction of plateau
    # with a floor for high-mode samples) so fresh dynamic trajectories
    # start already moderately detected — the reason the paper's gray
    # fraction stays small at low thresholds (Figure 8).
    if known:
        n_initial = len(detectors)
    else:
        frac0 = _beta(rng, profile.initial_frac_mean,
                      params.initial_concentration)
        n_initial = round(frac0 * len(detectors))
        if low_mode:
            # Even a fresh PUA is typically caught by at least one engine
            # on arrival (keeps the paper's gray fraction small at t=1).
            n_initial = max(n_initial, 1)
        else:
            floor = (profile.initial_floor
                     if profile.initial_floor is not None
                     else params.initial_floor)
            n_initial = max(n_initial, floor + rng.randint(-3, 3))
        n_initial = min(n_initial, len(detectors))
    rng.shuffle(detectors)
    initial_set = set(detectors[:n_initial])

    transitions: dict[int, list[tuple[int, int]]] = {}
    for idx in detectors:
        engine = ctx.fleet.engines[idx]
        if known:
            onset = first_seen - clock.minutes(
                days=rng.uniform(params.known_onset_min_days,
                                 params.known_onset_max_days)
            )
        elif idx in initial_set:
            onset = first_seen - clock.minutes(
                days=rng.uniform(0.0, params.initial_onset_max_days)
            )
        else:
            # Low-mode stragglers are simple signatures and land quickly;
            # high-mode campaigns follow the type's growth timescale, with
            # a slow-learner minority stretching over months — the long
            # tail behind Figure 7's interval effect.
            scale = 0.4 if low_mode else 1.0
            if not low_mode and rng.random() < params.slow_growth_frac:
                scale *= params.slow_growth_mult
            raw = first_seen + clock.minutes(
                days=rng.expovariate(1.0 / (profile.growth_days * scale))
            )
            onset = _aligned(ctx, idx, raw, rng)
        entry = [(onset, 1)]
        # Retraction (the organic 1->0 channel) only for detections that
        # predate the window, keeping observed per-engine sequences
        # monotone — hazard flips stay as rare as the paper found them.
        churn = engine.churn_for(category) * profile.churn_scale
        if onset <= first_seen and rng.random() < params.retract_prob * churn:
            raw = first_seen + clock.minutes(
                days=rng.expovariate(1.0 / params.retract_mean_days)
            )
            entry.append((_aligned(ctx, idx, raw, rng), 0))
        transitions[idx] = entry

    # Late joiners outside the plateau set: churn-weighted Poisson thinning.
    lam = params.late_join_rate * ctx.churn_total[category] * profile.churn_scale
    for _ in range(_poisson(rng, lam)):
        idx = rng.choices(ctx.engine_indices,
                          weights=ctx.churn_weights[category], k=1)[0]
        if idx in transitions:
            continue
        raw = first_seen + clock.minutes(
            days=rng.uniform(0.0, params.late_join_max_days)
        )
        transitions[idx] = [(_aligned(ctx, idx, raw, rng), 1)]

    # Flapping channel: one engine's cloud verdict oscillates with
    # day-scale dips.  Only engines already detecting before first
    # submission flap (flapping is verdict-confidence churn, not onset).
    if transitions and rng.random() < params.flap_rate:
        flappable = [idx for idx, entry in transitions.items()
                     if entry[0][0] <= first_seen and len(entry) == 1]
        if flappable:
            idx = flappable[rng.randrange(len(flappable))]
            onset = transitions[idx][0][0]
            entry = [(onset, 1)]
            t = first_seen + clock.minutes(days=rng.uniform(1.0, 20.0))
            for _ in range(1 + _poisson(rng, params.flap_dips_mean)):
                dip_end = t + clock.minutes(days=rng.uniform(0.5, 2.5))
                entry.append((t, 0))
                entry.append((dip_end, 1))
                t = dip_end + clock.minutes(days=rng.uniform(2.0, 8.0))
            transitions[idx] = entry

    # Rare extra hazard injection (paper: 9 dips in 109 M reports).
    if transitions and rng.random() < params.hazard_rate:
        idx = min(transitions)
        onset = transitions[idx][0][0]
        dip_start = max(first_seen, onset) + clock.minutes(days=rng.uniform(1, 10))
        dip_end = dip_start + clock.minutes(days=rng.uniform(1, 5))
        transitions[idx] = [(onset, 1), (dip_start, 0), (dip_end, 1)]
    return transitions


def _benign_transitions(
    ctx: BehaviorContext,
    rng: random.Random,
    sample: Sample,
    profile: FileTypeProfile,
) -> dict[int, list[tuple[int, int]]]:
    params = ctx.params
    category = profile.category
    first_seen = sample.first_seen
    transitions: dict[int, list[tuple[int, int]]] = {}

    def add_episode(idx: int) -> None:
        start_raw = first_seen + clock.minutes(
            days=rng.uniform(0.0, params.benign_fp_start_max_days)
        )
        start = _aligned(ctx, idx, start_raw, rng)
        duration = clock.minutes(
            days=rng.expovariate(1.0 / params.benign_fp_duration_days)
        )
        end = _aligned(ctx, idx, start + duration, rng)
        if end <= start:
            end = start + clock.minutes(days=1)
        transitions[idx] = [(start, 1), (end, 0)]

    if rng.random() < profile.fp_episode_prob:
        count = 1 + min(int(rng.expovariate(1.0 / params.benign_fp_extra_mean))
                        if params.benign_fp_extra_mean > 0 else 0,
                        params.benign_fp_cap)
        weights = ctx.fp_weights[category]
        if any(weights):
            for idx in rng.choices(ctx.engine_indices, weights=weights, k=count):
                if idx not in transitions:
                    add_episode(idx)

    # Churn-driven engine-specific FPs (Figure 10's flippy engines).
    lam = (params.benign_churn_fp_rate * ctx.churn_total[category]
           * profile.churn_scale)
    for _ in range(_poisson(rng, lam)):
        idx = rng.choices(ctx.engine_indices,
                          weights=ctx.churn_weights[category], k=1)[0]
        if idx not in transitions:
            add_episode(idx)
    return transitions


def _apply_copy_rules(
    ctx: BehaviorContext,
    rng: random.Random,
    transitions: dict[int, list[tuple[int, int]]],
    file_type: str,
    category: str,
) -> dict[int, int]:
    """Overwrite follower timelines with their leader's where rules apply.

    Returns the followers whose rule fired, mapped to their leader index,
    so the service can also correlate their timeout behaviour.
    """
    copied: dict[int, int] = {}
    for idx in ctx.fleet.decision_order:
        engine = ctx.fleet.engines[idx]
        rule = engine.copies
        if rule is None or not rule.applies_to(file_type, category):
            continue
        if rng.random() >= rule.fidelity:
            continue  # follower keeps its independent behaviour
        leader_idx = ctx.fleet.index[rule.leader]
        copied[idx] = leader_idx
        leader_timeline = transitions.get(leader_idx)
        if leader_timeline is None:
            transitions.pop(idx, None)
        else:
            transitions[idx] = list(leader_timeline)
    return copied


def build_plan(sample: Sample, ctx: BehaviorContext) -> DetectionPlan:
    """Construct the full per-engine verdict plan for ``sample``.

    Pure function of (scenario seed, sample): calling it twice yields an
    identical plan.
    """
    profile = FILE_TYPES[sample.file_type]
    rng = ctx.plan_rng(sample)
    if sample.malicious:
        transitions = _malicious_transitions(ctx, rng, sample, profile)
    else:
        transitions = _benign_transitions(ctx, rng, sample, profile)
    copied = _apply_copy_rules(ctx, rng, transitions, sample.file_type,
                               profile.category)
    frozen = {
        idx: tuple(sorted(entries)) for idx, entries in transitions.items()
    }
    return DetectionPlan(transitions=frozen, scan_rng=ctx.scan_rng(sample),
                         copied=copied)
