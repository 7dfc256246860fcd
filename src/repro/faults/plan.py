"""Seed-deterministic fault plans for the simulated storage stack.

A :class:`FaultSpec` is a declarative description of *what* can go wrong:
transient media errors (fail-N-times-then-succeed), completion timeouts,
service-latency spikes, and extent-cache staleness, each at a configurable
rate and confined to an optional simulated-time window.  A
:class:`FaultPlan` binds a spec to one kernel instance and makes the
per-command decisions.

Two properties drive the design:

* **Determinism.**  The plan draws from its *own* named RNG streams
  (derived from ``spec.seed`` and the kernel seed), never from the device
  jitter stream, so arming a plan does not perturb any other stochastic
  choice, and the same seed + same spec yields a byte-identical trace —
  including every retry and backoff.
* **Guaranteed recoverability of transients.**  A drawn media error opens
  an *episode*: the target LBA fails ``error_burst`` consecutive times and
  is then placed in a one-shot cooldown that guarantees the next service
  succeeds.  Even at ``read_error_rate=1.0`` a bounded retry loop
  therefore always makes progress.

The plan is consumed by :class:`~repro.device.nvme.NvmeDevice` (media
errors, timeouts, spikes) and by the chain engine (staleness).  Besides a
power cut it is the only way a command fails; the NVMe driver's retry rule
in :mod:`repro.kernel.kernel` is armed in every kernel.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.errors import InvalidArgument
from repro.sim.rng import RandomStreams

__all__ = [
    "FAULT_NET_DELAY",
    "FAULT_NET_DROP",
    "FAULT_POWER_LOSS",
    "FAULT_TARGET_CRASH",
    "FAULT_SPIKE",
    "FAULT_STALE",
    "FAULT_TIMEOUT",
    "FAULT_TRANSIENT",
    "FaultPlan",
    "FaultSpec",
    "fault_injection",
    "get_default_fault_spec",
    "parse_fault_spec",
    "set_default_fault_spec",
]

#: Fault kinds, as reported in ``fault_inject`` events and plan counters.
FAULT_TRANSIENT = "transient"
FAULT_TIMEOUT = "timeout"
FAULT_SPIKE = "spike"
FAULT_STALE = "stale"
FAULT_POWER_LOSS = "power_loss"
FAULT_NET_DROP = "net_drop"
FAULT_NET_DELAY = "net_delay"
FAULT_TARGET_CRASH = "target_crash"


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault-injection knobs (all rates are per command)."""

    #: Extra seed mixed into the plan's RNG streams, so two plans with the
    #: same rates can still draw independent fault sequences.
    seed: int = 0
    #: Probability that a read draws a transient media-error episode.
    read_error_rate: float = 0.0
    #: Probability that a write draws a transient media-error episode.
    write_error_rate: float = 0.0
    #: Consecutive failures per transient episode before the LBA recovers.
    error_burst: int = 1
    #: Probability that a command is swallowed until the controller
    #: watchdog fires (completes with a timeout status, no data).
    timeout_rate: float = 0.0
    #: Probability that a command's service latency is multiplied by
    #: ``spike_factor`` (capped at the command timeout when one is armed).
    spike_rate: float = 0.0
    spike_factor: float = 8.0
    #: Simulated ns between forced extent-cache invalidations (0 = off).
    stale_interval_ns: int = 0
    #: Injection window in simulated ns; ``window_end_ns == 0`` is open.
    window_start_ns: int = 0
    window_end_ns: int = 0
    #: Cut device power immediately after the k-th completed NVMe FLUSH
    #: (0 = off).  One-shot: the crash-point harness sweeps k over every
    #: flush boundary of a workload.
    power_loss_after_flushes: int = 0
    #: At the power cut, tear the oldest volatile write at a seed-chosen
    #: sector boundary instead of dropping it whole (0/1).
    torn_write: int = 0
    #: Probability that a network frame draws a drop episode: the frame
    #: (and ``net_drop_burst - 1`` retransmissions of it) vanish on the
    #: wire, then a one-shot cooldown guarantees the next send arrives.
    net_drop_rate: float = 0.0
    #: Consecutive losses per drop episode before the frame gets through.
    net_drop_burst: int = 1
    #: Probability that a delivered frame is held ``net_delay_ns`` extra.
    net_delay_rate: float = 0.0
    net_delay_ns: int = 50_000
    #: Power-cut one storage target immediately before it handles its
    #: k-th RPC (0 = off).  Consumed by :class:`repro.cluster.
    #: StorageCluster`, which counts handled RPCs cluster-wide: the
    #: target that would serve RPC k crashes instead, goes silent on the
    #: wire, and the client's :class:`~repro.errors.RpcTimeout` drives
    #: replica promotion.  One-shot, like ``power_loss_after_flushes``.
    target_crash_after_rpcs: int = 0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate", "timeout_rate",
                     "spike_rate", "net_drop_rate", "net_delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InvalidArgument(f"{name} must be in [0, 1], got {rate}")
        total = (self.read_error_rate + self.timeout_rate + self.spike_rate)
        total_w = (self.write_error_rate + self.timeout_rate +
                   self.spike_rate)
        if total > 1.0 or total_w > 1.0:
            raise InvalidArgument("fault rates must sum to <= 1 per opcode")
        if self.net_drop_rate + self.net_delay_rate > 1.0:
            raise InvalidArgument("net fault rates must sum to <= 1")
        if self.error_burst < 1:
            raise InvalidArgument("error_burst must be >= 1")
        if self.net_drop_burst < 1:
            raise InvalidArgument("net_drop_burst must be >= 1")
        if self.net_delay_ns < 0:
            raise InvalidArgument("net_delay_ns must be >= 0")
        if self.spike_factor < 1.0:
            raise InvalidArgument("spike_factor must be >= 1")
        if self.stale_interval_ns < 0 or self.window_start_ns < 0 or \
                self.window_end_ns < 0:
            raise InvalidArgument("intervals/windows must be >= 0")
        if self.power_loss_after_flushes < 0:
            raise InvalidArgument("power_loss_after_flushes must be >= 0")
        if self.target_crash_after_rpcs < 0:
            raise InvalidArgument("target_crash_after_rpcs must be >= 0")
        if self.torn_write not in (0, 1):
            raise InvalidArgument("torn_write must be 0 or 1")

    def active(self, now: int) -> bool:
        """Is the injection window open at simulated time ``now``?"""
        if now < self.window_start_ns:
            return False
        return self.window_end_ns == 0 or now < self.window_end_ns

    def any_faults(self) -> bool:
        return (self.read_error_rate > 0 or self.write_error_rate > 0 or
                self.timeout_rate > 0 or self.spike_rate > 0 or
                self.stale_interval_ns > 0 or
                self.power_loss_after_flushes > 0 or
                self.target_crash_after_rpcs > 0 or
                self.any_net_faults())

    def any_net_faults(self) -> bool:
        return self.net_drop_rate > 0 or self.net_delay_rate > 0


_INT_FIELDS = {"seed", "error_burst", "stale_interval_ns",
               "window_start_ns", "window_end_ns",
               "power_loss_after_flushes", "torn_write",
               "net_drop_burst", "net_delay_ns",
               "target_crash_after_rpcs"}


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI ``--fault-plan`` syntax: ``key=value[,key=value...]``.

    Keys are :class:`FaultSpec` field names, e.g.
    ``read_error_rate=0.01,error_burst=2,timeout_rate=0.001``.
    """
    known = {f.name for f in fields(FaultSpec)}
    kwargs: Dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidArgument(
                f"bad fault-plan entry {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in known:
            raise InvalidArgument(
                f"unknown fault-plan key {key!r} "
                f"(known: {', '.join(sorted(known))})")
        try:
            kwargs[key] = (int(value) if key in _INT_FIELDS
                           else float(value))
        except ValueError:
            raise InvalidArgument(
                f"bad fault-plan value for {key!r}: {value!r}")
    return FaultSpec(**kwargs)


class FaultPlan:
    """One kernel's bound fault plan: spec + RNG streams + episode state."""

    def __init__(self, spec: FaultSpec, kernel_seed: int = 0):
        self.spec = spec
        streams = RandomStreams(spec.seed).fork(f"faults/{kernel_seed}")
        self._media_rng = streams.stream("media")
        #: Dedicated stream for the power cut (torn-write boundary choice),
        #: so arming power loss perturbs no other fault decision.
        self.power_rng = streams.stream("power")
        #: Dedicated stream for network-frame fates, so arming net faults
        #: perturbs no media/power decision (and vice versa).
        self._net_rng = streams.stream("net")
        #: (opcode, lba) -> (kind, remaining failures) for open episodes.
        self._episodes: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: Targets whose next service is guaranteed to succeed.
        self._cooldown: set = set()
        #: (link, request_id) -> (kind, remaining losses) for open drop
        #: episodes.
        self._net_episodes: Dict[Tuple[str, int], Tuple[str, int]] = {}
        #: Frames whose next transmission is guaranteed to arrive.
        self._net_cooldown: set = set()
        #: Injected-fault counters by kind, for metrics reconciliation.
        self.injected: Dict[str, int] = {FAULT_TRANSIENT: 0, FAULT_TIMEOUT: 0,
                                         FAULT_SPIKE: 0, FAULT_STALE: 0,
                                         FAULT_POWER_LOSS: 0,
                                         FAULT_NET_DROP: 0,
                                         FAULT_NET_DELAY: 0,
                                         FAULT_TARGET_CRASH: 0}
        self._next_stale = spec.window_start_ns + spec.stale_interval_ns
        self._power_loss_fired = False
        self._target_crash_fired = False

    # -- media-path faults (consumed by NvmeDevice) ---------------------

    def inject(self, lba: int, kind: str = FAULT_TRANSIENT, times: int = 1,
               opcode: str = "read") -> None:
        """Deterministically fail the next ``times`` services of ``lba``.

        Programmatic counterpart of the random draw, for tests: opens an
        episode directly, bypassing the rates (and the window).
        """
        if kind not in (FAULT_TRANSIENT, FAULT_TIMEOUT):
            raise InvalidArgument(f"cannot pre-inject fault kind {kind!r}")
        if times < 1:
            raise InvalidArgument("times must be >= 1")
        self._episodes[(opcode, lba)] = (kind, times)

    def media_decision(self, command, now: int) -> Optional[str]:
        """Decide this command's fate; returns a fault kind or ``None``.

        Called once by the device as the command enters a service slot.
        Open episodes are consumed first (no RNG draw); otherwise a single
        uniform draw is partitioned across the configured fault classes so
        decisions stay deterministic regardless of which are enabled.
        """
        key = (command.opcode, command.lba)
        decided, kind = self._replay(self._episodes, self._cooldown, key)
        if decided:
            return kind
        spec = self.spec
        if not spec.active(now):
            return None
        error_rate = (spec.read_error_rate if command.opcode == "read"
                      else spec.write_error_rate)
        if error_rate == 0 and spec.timeout_rate == 0 and \
                spec.spike_rate == 0:
            return None
        draw = self._media_rng.random()
        if draw < error_rate:
            return self._open(self._episodes, self._cooldown, key,
                              FAULT_TRANSIENT, spec.error_burst)
        draw -= error_rate
        if draw < spec.timeout_rate:
            self.injected[FAULT_TIMEOUT] += 1
            return FAULT_TIMEOUT
        draw -= spec.timeout_rate
        if draw < spec.spike_rate:
            self.injected[FAULT_SPIKE] += 1
            return FAULT_SPIKE
        return None

    # -- network faults (consumed by repro.net.fabric) ------------------

    def net_decision(self, key: Tuple[str, int], now: int) -> Optional[str]:
        """Decide one frame's fate; returns a fault kind or ``None``.

        ``key`` identifies the retransmittable unit — ``(link name,
        request id)`` — so a drawn drop opens an *episode* against that
        frame: it and its next ``net_drop_burst - 1`` retransmissions are
        lost, then a one-shot cooldown guarantees delivery.  Bounded
        client retries therefore always make progress, exactly like the
        media-error episodes, and the draws come from a dedicated RNG
        stream so arming net faults never perturbs media decisions.
        """
        decided, kind = self._replay(self._net_episodes, self._net_cooldown,
                                     key)
        if decided:
            return kind
        spec = self.spec
        if not spec.active(now) or not spec.any_net_faults():
            return None
        draw = self._net_rng.random()
        if draw < spec.net_drop_rate:
            return self._open(self._net_episodes, self._net_cooldown, key,
                              FAULT_NET_DROP, spec.net_drop_burst)
        draw -= spec.net_drop_rate
        if draw < spec.net_delay_rate:
            self.injected[FAULT_NET_DELAY] += 1
            return FAULT_NET_DELAY
        return None

    # -- episodes (shared by the media and network decisions) -----------

    def _replay(self, episodes: Dict, cooldown: set,
                key: Tuple) -> Tuple[bool, Optional[str]]:
        """Consume ``key``'s open episode, or its one-shot cooldown.

        Returns ``(True, kind)`` when either decides the fate without an
        RNG draw (the episode's fault kind; None on cooldown, the
        guaranteed success), else ``(False, None)``.  An episode's last
        failure moves ``key`` to cooldown.
        """
        episode = episodes.get(key)
        if episode is not None:
            kind, remaining = episode
            if remaining <= 1:
                del episodes[key]
                cooldown.add(key)
            else:
                episodes[key] = (kind, remaining - 1)
            self.injected[kind] += 1
            return True, kind
        if key in cooldown:
            cooldown.discard(key)
            return True, None
        return False, None

    def _open(self, episodes: Dict, cooldown: set, key: Tuple, kind: str,
              burst: int) -> str:
        """A drawn fault of ``kind``: ``key``'s next ``burst - 1`` services
        fail too, and the one after is guaranteed to succeed."""
        if burst > 1:
            episodes[key] = (kind, burst - 1)
        else:
            cooldown.add(key)
        self.injected[kind] += 1
        return kind

    # -- extent-cache staleness (consumed by the chain engine) ----------

    def stale_due(self, now: int) -> bool:
        """Has a staleness deadline elapsed since the last check?

        Event-driven rather than timer-driven: deadlines advance in fixed
        ``stale_interval_ns`` steps from the window start, and the *next
        observer* (a chain hop consulting its snapshot) takes the hit.
        This keeps the simulator's event heap free of perpetual timers.
        """
        spec = self.spec
        if spec.stale_interval_ns == 0 or not spec.active(now):
            return False
        if now < self._next_stale:
            return False
        while self._next_stale <= now:
            self._next_stale += spec.stale_interval_ns
        self.injected[FAULT_STALE] += 1
        return True

    # -- power loss (consumed by NvmeDevice at flush completion) --------

    def power_loss_due(self, completed_flushes: int) -> bool:
        """One-shot: has the armed flush boundary just been crossed?

        The device asks after every completed FLUSH; the cut fires exactly
        once, when ``completed_flushes`` reaches the configured k.
        """
        spec = self.spec
        if spec.power_loss_after_flushes == 0 or self._power_loss_fired:
            return False
        if completed_flushes < spec.power_loss_after_flushes:
            return False
        self._power_loss_fired = True
        self.injected[FAULT_POWER_LOSS] += 1
        return True

    # -- target crash (consumed by repro.cluster per handled RPC) -------

    def target_crash_due(self, handled_rpcs: int) -> bool:
        """One-shot: has the armed RPC count just been reached?

        The cluster asks before every RPC a target handles, passing the
        cluster-wide handled-RPC count; the crash fires exactly once,
        when the count reaches the configured k — so which *target* dies
        is a deterministic function of workload routing, not of a
        separate draw.
        """
        spec = self.spec
        if spec.target_crash_after_rpcs == 0 or self._target_crash_fired:
            return False
        if handled_rpcs < spec.target_crash_after_rpcs:
            return False
        self._target_crash_fired = True
        self.injected[FAULT_TARGET_CRASH] += 1
        return True

    def total_injected(self) -> int:
        return sum(self.injected.values())


# ---------------------------------------------------------------------------
# Process-default plumbing (mirrors repro.obs.bus.get/set_default_bus), so
# ``--fault-plan`` on the CLI reaches kernels built deep inside experiment
# runners without threading a parameter through every constructor.
# ---------------------------------------------------------------------------

_default_spec: Optional[FaultSpec] = None


def get_default_fault_spec() -> Optional[FaultSpec]:
    """The process-wide default fault spec (None unless installed)."""
    return _default_spec


def set_default_fault_spec(spec: Optional[FaultSpec]) -> Optional[FaultSpec]:
    """Install ``spec`` as the default; returns the previous default."""
    global _default_spec
    previous = _default_spec
    _default_spec = spec
    return previous


@contextlib.contextmanager
def fault_injection(spec: FaultSpec):
    """Context manager: every kernel built inside picks up ``spec``."""
    previous = set_default_fault_spec(spec)
    try:
        yield spec
    finally:
        set_default_fault_spec(previous)
