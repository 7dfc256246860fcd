"""The NVMe device model: queue pairs, bounded parallelism, interrupts.

The device exposes ``queues`` submission/completion queue pairs (per-core
queue pairs are how real NVMe scales past a single dispatcher).  Each pair
pulls commands from its own submission queue into service slots; all pairs
share the device's internal bandwidth — at most ``model.parallelism``
commands are in media service at once, regardless of how many queues they
arrived on.  A serviced command spends the sampled media latency, moves the
data, and then raises a *completion interrupt* on its queue pair by
invoking the handler the NVMe driver registered.  Everything after that
point — interrupt CPU cost, the BPF completion hook, walking the completion
back up the stack — belongs to the kernel layers, not the device.

With ``queues=1`` (the default) the device runs the original single-pair
code path: no bandwidth arbitration resource exists and the service loops
consume the one queue directly, keeping event streams and RNG draw order
byte-identical to builds that predate multi-queue.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional

from repro.errors import InvalidArgument, IoError, PowerLossError
from repro.device.blockdev import SECTOR_SIZE, BlockDevice
from repro.device.latency import LatencyModel
from repro.device.writecache import WriteCache
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS, TraceBus
from repro.sim import Resource, Simulator, Store

__all__ = ["NvmeCommand", "NvmeDevice", "STATUS_MEDIA_ERROR", "STATUS_OK",
           "STATUS_POWER_FAIL", "STATUS_TIMEOUT"]

#: NVMe completion statuses.  Error completions (anything non-zero) carry
#: ``data=None`` — never a short buffer — so the length invariant
#: ``len(data) == sectors * 512`` holds exactly when ``status == 0``.
STATUS_OK = 0
STATUS_MEDIA_ERROR = 1
STATUS_TIMEOUT = 2
#: Power was cut while the command was in flight; media was not touched.
STATUS_POWER_FAIL = 3


class NvmeCommand:
    """One NVMe command.

    For reads, ``data`` is filled by the device at completion.  ``cookie``
    is opaque driver context (the simulated kernel hangs its per-I/O state
    off it).  ``source`` records who enqueued the command ("bio" for the
    normal stack, "bpf-recycle" for a descriptor recycled by the completion
    hook), which traces and tests rely on.
    """

    __slots__ = ("opcode", "lba", "sectors", "data", "cookie", "source",
                 "submit_ns", "complete_ns", "status", "span", "path",
                 "driver_ns", "fua", "queue", "tenant")

    def __init__(self, opcode: str, lba: int, sectors: int,
                 data: Optional[bytes] = None, cookie: Any = None,
                 source: str = "bio", fua: bool = False, queue: int = 0):
        if opcode not in ("read", "write", "flush"):
            raise InvalidArgument(f"bad NVMe opcode {opcode!r}")
        if opcode == "write" and data is None:
            raise InvalidArgument("write command needs data")
        if opcode == "write" and data is not None and \
                len(data) != sectors * SECTOR_SIZE:
            raise InvalidArgument("write data length != sectors * 512")
        if opcode == "flush" and (sectors != 0 or data is not None):
            raise InvalidArgument("flush carries no sectors or data")
        if fua and opcode != "write":
            raise InvalidArgument("FUA applies to writes only")
        self.opcode = opcode
        self.lba = lba
        self.sectors = sectors
        self.data = data
        self.cookie = cookie
        self.source = source
        #: Force unit access: this write bypasses the volatile cache and
        #: is durable at completion (how the journal commits without a
        #: full cache drain).
        self.fua = fua
        #: Queue pair this command is posted to.  Like ``span``/``path``
        #: it survives :meth:`retarget`, so a chain's recycled hops stay
        #: on the queue (and therefore the CPU core) they started on.
        self.queue = queue
        #: Tenant charged for this I/O (a name, or None for kernel-internal
        #: traffic).  Caller-owned context like ``span``/``queue``: it
        #: survives :meth:`retarget`, so a chain's recycled hops keep
        #: billing the tenant that started the chain.  The device only
        #: consults it under QoS weighted-fair queueing.
        self.tenant: Optional[str] = None
        self.submit_ns = -1
        self.complete_ns = -1
        self.status = 0
        #: Observability context: owning span id, I/O path taxonomy, and
        #: the driver-side submission cost charged for this command.
        self.span = 0
        self.path = "normal"
        self.driver_ns = 0

    def retarget(self, lba: int, sectors: int) -> None:
        """Recycle this descriptor for a new read (the paper's §4 recycle).

        Clears everything the previous service stamped — payload, status,
        and the submit/complete/driver timings — so traces and events for
        the new hop cannot carry the previous hop's attribution.  ``span``,
        ``path``, and ``queue`` are caller-owned context and are left for
        the caller to reassign (keeping ``queue`` is what pins a chain's
        recycled hops to their originating queue pair).
        """
        self.lba = lba
        self.sectors = sectors
        self.data = None
        self.status = STATUS_OK
        self.submit_ns = -1
        self.complete_ns = -1
        self.driver_ns = 0

    def __repr__(self) -> str:
        return (f"NvmeCommand({self.opcode} lba={self.lba} "
                f"sectors={self.sectors} source={self.source})")


class NvmeDevice:
    """Queue pairs + shared parallel service bandwidth + completion IRQs."""

    def __init__(self, sim: Simulator, model: LatencyModel,
                 media: BlockDevice, rng: random.Random,
                 bus: Optional[TraceBus] = None,
                 cache_depth: int = 0, queues: int = 1, qos=None):
        if queues < 1:
            raise InvalidArgument(f"need at least one queue pair, got {queues}")
        self.sim = sim
        self.model = model
        self.media = media
        self.rng = rng
        self.bus = bus if bus is not None else NULL_BUS
        self.queues = queues
        self.submission_queues: List[Store] = [
            Store(sim, name="nvme-sq" if index == 0 else f"nvme-sq{index}")
            for index in range(queues)]
        #: The device's internal media bandwidth, shared by every queue
        #: pair: at most ``model.parallelism`` commands in service at once.
        #: Only materialised for multi-queue devices — a single pair is
        #: bounded by its own service loops exactly as before, so the
        #: ``queues=1`` event stream stays byte-identical.
        self.bandwidth: Optional[Resource] = (
            Resource(sim, model.parallelism, name="nvme-bandwidth")
            if queues > 1 else None)
        #: QoS manager (a :class:`repro.qos.QosManager`) and per-queue
        #: weighted-fair schedulers.  Only materialised when the kernel
        #: was built with a QosConfig; otherwise submission queues stay
        #: strict FIFO and behaviour is byte-identical to a device
        #: predating QoS.
        self.qos = qos
        self._wfq = None
        if qos is not None:
            from repro.qos.shapers import WfqScheduler
            self._wfq = [WfqScheduler(qos.config.weight_of) for _ in range(queues)]
        #: Registered by the NVMe driver; invoked once per completion at the
        #: simulated completion instant.
        self.completion_handler: Optional[Callable[[NvmeCommand], None]] = None
        self.in_flight = 0
        self.completed = 0
        self.queue_in_flight: List[int] = [0] * queues
        self.queue_completed: List[int] = [0] * queues
        self.media_errors = 0
        self.timeouts = 0
        #: Volatile write cache; depth 0 keeps the device write-through
        #: and its behaviour byte-identical to a build without the cache.
        self.write_cache: Optional[WriteCache] = (
            WriteCache(media, cache_depth) if cache_depth > 0 else None)
        self.flushes = 0
        #: True after :meth:`power_loss`; submissions then raise
        #: :class:`PowerLossError` and in-flight commands complete with
        #: ``STATUS_POWER_FAIL`` without touching media.
        self.powered_off = False
        self.power_cycles = 0
        #: Optional :class:`repro.faults.FaultPlan` consulted once per
        #: command as it enters a service slot (transients/timeouts/spikes).
        #: Besides a power cut, it is the only way a command fails.
        self.fault_plan = None
        #: Controller watchdog, programmed by the driver (0 = disarmed) and
        #: read only under a fault plan: a command whose service would
        #: exceed this completes with ``STATUS_TIMEOUT`` after exactly
        #: ``command_timeout_ns``.
        self.command_timeout_ns = 0
        # One pair: parallelism service loops on the single queue (the
        # historical layout).  Multi-queue: every pair gets its own full
        # complement of loops so any one queue can use the whole device,
        # with the shared bandwidth resource enforcing the global bound.
        for queue in range(queues):
            for slot in range(model.parallelism):
                sim.spawn(self._service_loop(queue),
                          name=(f"nvme-slot-{slot}" if queues == 1
                                else f"nvme-q{queue}-slot-{slot}"))

    def submit(self, command: NvmeCommand) -> None:
        """Post a command to the submission queue (no CPU cost here; the
        driver charges its own submission cost)."""
        if self.powered_off:
            if self.bus.enabled:  # the driver's cost is spent all the same
                self.bus.emit(obs_events.NVME_SUBMIT, self.sim.now,
                              opcode=command.opcode, source=command.source,
                              driver_ns=command.driver_ns, span=command.span,
                              path=command.path, rejected=True)
            raise PowerLossError(
                f"submit to powered-off device: {command!r}")
        if command.complete_ns != -1:
            raise IoError(
                f"stale NVMe descriptor resubmitted without retarget: "
                f"{command!r}")
        queue = command.queue % self.queues
        command.queue = queue
        command.submit_ns = self.sim.now
        self.in_flight += 1
        self.queue_in_flight[queue] += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.NVME_SUBMIT, self.sim.now,
                          opcode=command.opcode, lba=command.lba,
                          sectors=command.sectors, source=command.source,
                          driver_ns=command.driver_ns, span=command.span,
                          path=command.path, queue_depth=self.in_flight,
                          queue=queue)
        if self._wfq is not None:
            # WFQ arbitration: the command parks in the per-tenant fair
            # queue and the Store entry below is only the wakeup token;
            # each freed service slot then dequeues the globally fairest
            # command rather than the oldest one.
            depth = self._wfq[queue].push(command.tenant, command,
                                          cost=max(1, command.sectors))
            self.qos.note_depth(queue, command.tenant, depth)
        self.submission_queues[queue].put(command)

    def _service_loop(self, queue: int = 0):
        sq = self.submission_queues[queue]
        while True:
            command = yield sq.get()
            if self._wfq is not None:
                # Pushes and Store puts are 1:1, so the fair queue is
                # never empty here.
                _tenant, command = self._wfq[queue].pop()
            grant = None
            if self.bandwidth is not None:
                # Multi-queue: admission to media is arbitrated across all
                # queue pairs; this pair's command waits for one of the
                # device's shared service units.
                grant = self.bandwidth.request()
                yield grant
            if command.opcode == "read":
                latency = self.model.sample_read(self.rng)
            elif command.opcode == "flush":
                latency = self.model.sample_flush(self.rng)
            else:
                latency = self.model.sample_write(self.rng)
            fault = None
            plan = self.fault_plan
            # Flushes are exempt from transient/timeout/spike draws; their
            # failure mode is the power cut checked at completion below.
            if plan is not None and command.opcode != "flush":
                fault = plan.media_decision(command)
                if fault == "spike":
                    latency = max(1, int(latency * plan.spec.spike_factor))
                if self.command_timeout_ns and \
                        (fault == "timeout" or
                         latency >= self.command_timeout_ns):
                    # Timeout-faulted (or pathologically slow) commands
                    # hold their service slot until the watchdog fires,
                    # then complete with a timeout status and no data.
                    fault = "timeout"
                    latency = self.command_timeout_ns
                if fault is not None and self.bus.enabled:
                    self.bus.emit(obs_events.FAULT_INJECT, self.sim.now,
                                  kind=fault, opcode=command.opcode,
                                  lba=command.lba, sectors=command.sectors,
                                  source=command.source, span=command.span,
                                  path=command.path)
            yield self.sim.timeout(latency)
            if self.powered_off:
                # Power was cut while this command was in its service
                # slot: it never reached media.
                command.status = STATUS_POWER_FAIL
                command.data = None
            elif fault == "timeout":
                command.status = STATUS_TIMEOUT
                command.data = None
                self.timeouts += 1
            elif fault == "transient":
                command.status = STATUS_MEDIA_ERROR
                command.data = None
                self.media_errors += 1
            else:
                self._do_media(command)
            if grant is not None:
                self.bandwidth.release(grant)
            command.complete_ns = self.sim.now
            self.in_flight -= 1
            self.completed += 1
            self.queue_in_flight[queue] -= 1
            self.queue_completed[queue] += 1
            if self.bus.enabled:
                # service_ns is the sampled media time, excluding queue
                # wait, so layer attribution stays exact under queueing.
                self.bus.emit(
                    obs_events.NVME_COMPLETE, self.sim.now,
                    opcode=command.opcode, lba=command.lba,
                    sectors=command.sectors, source=command.source,
                    service_ns=latency,
                    queue_ns=command.complete_ns - command.submit_ns - latency,
                    status=command.status, span=command.span,
                    path=command.path, queue=queue)
            if command.opcode == "flush" and command.status == STATUS_OK:
                # The fault plan may schedule a power cut "right after the
                # k-th flush": flushed data is durable, everything written
                # to the cache afterwards is lost, and the handler below
                # resumes a workload that will trip over the dead device.
                if plan is not None and plan.power_loss_due(self.flushes):
                    self.power_loss(rng=plan.power_rng,
                                    tear=plan.spec.torn_write > 0)
            handler = self.completion_handler
            if handler is None:
                raise IoError("NVMe completion with no handler registered")
            handler(command)

    def _do_media(self, command: NvmeCommand) -> None:
        if command.opcode == "flush":
            flushed = self.write_cache.flush() \
                if self.write_cache is not None else 0
            self.flushes += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.NVME_FLUSH, self.sim.now,
                              records=flushed, span=command.span,
                              path=command.path)
            return
        if command.opcode == "read":
            if self.write_cache is not None:
                data = self.write_cache.read(command.lba, command.sectors)
            else:
                data = self.media.read(command.lba, command.sectors)
            if len(data) != command.sectors * SECTOR_SIZE:
                raise IoError(
                    f"media returned {len(data)}B for "
                    f"{command.sectors}-sector read")
            command.data = data
        elif self.write_cache is not None and not command.fua:
            self.write_cache.write(command.lba, command.data)
        else:
            # FUA (or write-through device): straight to media.  The
            # journal only FUA-writes its own region, which data writes
            # never touch, so ordering against cached records is moot.
            self.media.write(command.lba, command.data)

    # -- power lifecycle -----------------------------------------------------

    def power_loss(self, rng: Optional[random.Random] = None,
                   tear: bool = False) -> dict:
        """Cut power: drop volatile cache contents (optionally tearing the
        oldest record) and refuse all further submissions."""
        info = {"dropped": 0, "torn_sectors": 0, "torn_lba": -1}
        if self.write_cache is not None:
            info = self.write_cache.power_loss(rng=rng, tear=tear)
        self.powered_off = True
        self.power_cycles += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.POWER_LOSS, self.sim.now,
                          dropped=info["dropped"],
                          torn_sectors=info["torn_sectors"],
                          torn_lba=info["torn_lba"],
                          flushes=self.flushes)
        return info

    def power_on(self) -> None:
        """Bring the device back after a crash (cache is already empty)."""
        self.powered_off = False
