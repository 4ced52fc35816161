"""Concrete attack scenarios (paper §4).

Every scenario is a ``program_factory(outcome)`` usable with
:func:`repro.attacks.analysis.run_attack`, plus a few helpers that run
against the VARAN baseline for the §6 comparison.
"""

from __future__ import annotations

from repro.diversity.dcl import address_valid_in
from repro.guest.program import Compute, Program
from repro.kernel import constants as C
from repro.kernel.syscalls import SyscallRequest

SECRET_PATH = "/etc/shadow"
SECRET_DATA = b"root:$6$supersecret$hash:19000::::::"


# ---------------------------------------------------------------------------
# 1. Code-reuse payload vs. diversified replicas
# ---------------------------------------------------------------------------
def code_injection_program(outcome, payload_addr=None, exfil_call="open"):
    """A server-ish program with a memory-corruption bug.

    The attacker's input carries an absolute code address (a ROP/return
    target harvested from one replica). Each replica "jumps" to that
    address: replicas in which the address falls inside executable
    memory are compromised and run the attacker's payload; the others
    crash with SIGSEGV — observable divergence.

    ``payload_addr=None`` means the attacker targets replica 0's code
    layout (the common case: the leak came from the master).
    """

    def main(ctx):
        libc = ctx.libc
        yield Compute(10_000)
        # Benign phase: the program does some normal work.
        fd = yield from libc.open("/data/config.txt")
        assert fd >= 0
        yield from libc.read(fd, 64)
        yield from libc.close(fd)

        # The malicious input arrives; the overflowed return address.
        # The harvest needs a real layout: every monitor in this repo
        # (ReMon, Varan, DistMvee) hands each replica one, so a missing
        # layout is a harness bug, not a case to paper over with a
        # fixed address that no diversified replica could ever map.
        target = payload_addr
        if target is None:
            target = ctx.layout.code_base + 0x1234
            target = outcome.notes.setdefault("payload_addr", target)
        # "Jump": valid only if target is executable *in this replica*.
        mapping = ctx.mem.find_mapping(target)
        executable = mapping is not None and mapping.prot & C.PROT_EXEC
        if not executable:
            # The replica crashes on the wild jump.
            ctx.mem.write(target, b"\x90")  # faults -> SIGSEGV
            return 1  # unreachable
        # Compromised replica: run the attacker's payload.
        outcome.notes.setdefault("compromised", []).append(
            ctx.process.replica_index
        )
        if exfil_call == "open":
            sfd = yield from libc.open(SECRET_PATH)
            if sfd >= 0:
                _ret, data = yield from libc.read(sfd, 128)
                outcome.effect_occurred = True
                outcome.effect = "read %d bytes of %s" % (len(data), SECRET_PATH)
        elif exfil_call == "socket_write":
            # Exfiltrate over an unmonitored socket write (the policy-
            # accepted residual risk at SOCKET_RW, §4).
            sock = outcome.notes.get("sock_fd")
            if sock is not None:
                sent = yield from libc.send(sock, b"EXFIL:" + SECRET_DATA)
                if sent > 0:
                    outcome.effect_occurred = True
                    outcome.effect = "exfiltrated %d bytes unmonitored" % sent
        yield Compute(50_000)
        return 0

    return Program(
        "victim", main, files={"/data/config.txt": b"cfg", SECRET_PATH: SECRET_DATA}
    )


def socket_exfil_program(outcome):
    """Like code_injection_program but the payload exfiltrates over a
    pre-established socket using only SOCKET_RW-unmonitored calls."""

    def main(ctx):
        libc = ctx.libc
        # Establish a loopback connection during the benign phase.
        listener = yield from libc.socket()
        yield from libc.bind(listener, "0.0.0.0", 7777)
        yield from libc.listen(listener)
        client = yield from libc.socket()
        ret = yield from libc.connect(client, ctx.process.host_ip, 7777)
        assert ret == 0, ret
        conn = yield from libc.accept(listener)
        assert conn >= 0
        outcome.notes["sock_fd"] = client
        outcome.notes["drain_fd"] = conn

        target = outcome.notes.setdefault(
            "payload_addr2", ctx.layout.code_base + 0x2000
        )
        mapping = ctx.mem.find_mapping(target)
        executable = mapping is not None and mapping.prot & C.PROT_EXEC
        if not executable:
            ctx.mem.write(target, b"\x90")
            return 1
        outcome.notes.setdefault("compromised", []).append(ctx.process.replica_index)
        sent = yield from libc.send(client, b"EXFIL:" + SECRET_DATA)
        if sent > 0:
            outcome.effect_occurred = True
            outcome.effect = "exfiltrated %d bytes over unmonitored socket" % sent
        yield Compute(50_000)
        return 0

    return Program("victim-sock", main, files={SECRET_PATH: SECRET_DATA})


# ---------------------------------------------------------------------------
# 2. Argument corruption (classic memory error)
# ---------------------------------------------------------------------------
def corrupted_argument_program(outcome):
    """A memory error corrupts a syscall argument differently per
    replica (a heap pointer overwritten with a layout-dependent value):
    the replicas pass different paths to open(2)."""

    def main(ctx):
        libc = ctx.libc
        yield Compute(5_000)
        # The "corruption": the filename pointer is overwritten with a
        # value derived from the replica's own heap base.
        if ctx.process.replica_index == 0:
            path = SECRET_PATH
        else:
            path = "/data/benign.txt"
        fd = yield from libc.open(path)
        if fd >= 0 and path == SECRET_PATH:
            outcome.effect_occurred = True
            outcome.effect = "opened " + SECRET_PATH
        return 0

    return Program(
        "corrupt", main, files={SECRET_PATH: SECRET_DATA, "/data/benign.txt": b"ok"}
    )


# ---------------------------------------------------------------------------
# 3. Replication-buffer discovery
# ---------------------------------------------------------------------------
def rb_discovery_program(outcome, guesses=64):
    """A compromised replica hunts for the RB: first via
    /proc/self/maps (scrubbed by GHUMVEE, §3.1), then by guessing
    addresses (24 bits of entropy per replica, §4)."""

    def segv_handler(ctx, signo):
        ctx.attacker_state["faults"] = ctx.attacker_state.get("faults", 0) + 1

    def main(ctx):
        libc = ctx.libc
        yield ctx.sys.rt_sigaction(C.SIGSEGV, segv_handler)
        # Step 1: read /proc/self/maps and look for the RB.
        fd = yield from libc.open("/proc/self/maps")
        assert fd >= 0
        content = bytearray()
        while True:
            ret, data = yield from libc.read(fd, 4096)
            if ret <= 0:
                break
            content += data
        yield from libc.close(fd)
        if b"ipmon-rb" in content:
            outcome.effect_occurred = True
            outcome.effect = "RB located via /proc/self/maps"
            return 1
        outcome.notes["maps_scrubbed"] = True
        # Step 2: guess. The RB is a 16 MiB region somewhere in a
        # ~2^24-page area; probe a few candidates (a real attack needs
        # ~2^23 probes *per replica*, each risking a crash).
        base = 0x7E00_0000_0000
        probed = 0
        for i in range(guesses):
            addr = base + (ctx.rng.getrandbits(24) * C.PAGE_SIZE)
            probed += 1
            try:
                ctx.mem.read(addr, 4)
            except Exception:  # MemoryFault - the probe faulted
                continue
            mapping = ctx.mem.find_mapping(addr)
            if mapping is not None and mapping.name == "[ipmon-rb]":
                outcome.effect_occurred = True
                outcome.effect = "RB found after %d probes" % probed
                outcome.notes["rb_addr"] = addr
                return 1
        outcome.notes["probes"] = probed
        yield Compute(1_000)
        return 0

    return Program("rb-hunter", main)


def rb_tamper_program(outcome):
    """What an attacker could do *with* the RB pointer (hypothetically
    leaked): corrupt the master's recorded arguments so the slave's
    sanity check sees inconsistent data. The design point: tampering is
    detected as divergence; hiding the pointer prevents even that."""

    def main(ctx):
        libc = ctx.libc
        rb = None
        if ctx.process.replica_index == 0:
            # The "leak": find the RB mapping directly (simulating a
            # hypothetical infoleak the hidden-pointer design prevents).
            rb = next(
                (m for m in ctx.mem.mappings() if m.name == "[ipmon-rb]"), None
            )
            if rb is not None:
                outcome.notes["leaked_rb"] = rb.start
        del libc
        yield Compute(2_000)
        # The compromised master races the slaves: right after each of
        # its own unmonitored calls returns, it scribbles over the lane
        # the slaves have not yet validated.
        for _ in range(6):
            _pid = yield ctx.sys.getpid()
            if rb is not None:
                ctx.mem.write(rb.start + 64, b"\xff" * 2048, check_prot=False)
                outcome.effect_occurred = True
                outcome.effect = "tampered with RB contents"
            yield Compute(3_000)
        return 0

    return Program("rb-tamper", main)


# ---------------------------------------------------------------------------
# 4. IK-B token forgery
# ---------------------------------------------------------------------------
def token_forgery_program(outcome):
    """A compromised master tries to execute an unmonitored call
    directly, claiming to be IP-MON with a guessed token (§3.1/§4)."""

    def main(ctx):
        yield Compute(2_000)
        if ctx.process.replica_index == 0:
            forged = SyscallRequest(
                "read",
                (0, 0, 0),
                site="ipmon",
                token=0xDEADBEEFDEADBEEF,
            )
            result = yield forged
            outcome.notes["forged_result"] = result
            # If this executed unmonitored, the broker's stats would not
            # show a verification failure; the harness checks them.
        else:
            # The healthy replica continues its normal behaviour.
            _pid = yield ctx.sys.getpid()
        yield Compute(2_000)
        return 0

    return Program("forger", main)


# ---------------------------------------------------------------------------
# 5-6. VARAN weaknesses (§6): run-ahead window + unaligned gadgets
# ---------------------------------------------------------------------------
def varan_window_program(outcome):
    """Compromised master executes a sensitive call; under VARAN it
    completes before any slave check (the ring buffer is the window),
    under ReMon the lockstep rendezvous blocks it."""

    def main(ctx):
        libc = ctx.libc
        yield Compute(2_000)
        if ctx.process.replica_index == 0:
            fd = yield from libc.open(SECRET_PATH)
            if fd >= 0:
                ret, _ = yield from libc.read(fd, 128)
                if ret > 0:
                    outcome.effect_occurred = True
                    outcome.effect = "sensitive open+read executed"
        else:
            yield Compute(500_000)  # the slave lags far behind
            _pid = yield ctx.sys.getpid()
        yield Compute(2_000)
        return 0

    return Program("window", main, files={SECRET_PATH: SECRET_DATA})


def unaligned_gadget_program(outcome):
    """A syscall issued through an unaligned gadget: VARAN's binary
    rewriting never instrumented this instruction, so the call bypasses
    its agents entirely; ReMon's IK-B intercepts every syscall (§6)."""

    def main(ctx):
        libc = ctx.libc
        yield Compute(2_000)
        # Both replicas stage the buffer identically (the benign part of
        # the program); only the compromised master fires the gadget.
        addr = yield from libc.push_cstr(SECRET_PATH)
        if ctx.process.replica_index == 0:
            raw = SyscallRequest("open", (addr, C.O_RDONLY, 0))
            raw.bypass_agents = True
            fd = yield raw
            if fd >= 0:
                outcome.effect_occurred = True
                outcome.effect = "gadget syscall executed (fd=%d)" % fd
        yield Compute(2_000)
        _pid = yield ctx.sys.getpid()
        return 0

    return Program("gadget", main, files={SECRET_PATH: SECRET_DATA})


# ---------------------------------------------------------------------------
# 7. Temporal-exemption abuse (§3.4)
# ---------------------------------------------------------------------------
def temporal_abuse_program(outcome, warm_calls=16):
    """The attacker warms the temporal window with benign socket reads,
    then issues a malicious read hoping it gets exempted. Deterministic
    policies guarantee success; stochastic ones do not."""

    def main(ctx):
        libc = ctx.libc
        # Loopback socket whose reads are *conditionally monitored* at
        # NONSOCKET_* levels (socket reads need SOCKET_RO).
        listener = yield from libc.socket()
        yield from libc.bind(listener, "0.0.0.0", 7878)
        yield from libc.listen(listener)
        client = yield from libc.socket()
        ret = yield from libc.connect(client, ctx.process.host_ip, 7878)
        assert ret == 0
        conn = yield from libc.accept(listener)
        assert conn >= 0
        # Prefill.
        yield from libc.send(client, b"A" * 4096)
        # Warm the window: benign reads on the socket. read(2) on a
        # socket is a *conditional* call, monitored below SOCKET_RO.
        for _ in range(warm_calls):
            ret, _ = yield from libc.read(conn, 64)
            assert ret == 64, ret
        # The malicious read: did the master's IP-MON exempt it?
        replica = ctx.process.ipmon_replica
        stats = replica.group.stats if replica is not None else {}
        before = stats.get("temporal_exemptions", 0)
        ret, _data = yield from libc.read(conn, 64)
        after = stats.get("temporal_exemptions", 0)
        if ctx.process.replica_index == 0 and after > before and ret > 0:
            outcome.effect_occurred = True
            outcome.effect = "malicious socket read executed unmonitored"
        yield Compute(2_000)
        return 0

    return Program("temporal-abuse", main)


# ---------------------------------------------------------------------------
# 8. Cross-node layout leak (heterogeneous clusters, DESIGN.md §13)
# ---------------------------------------------------------------------------
def layout_leak_program(outcome, leaked_key="payload_addr"):
    """The distributed analogue of :func:`code_injection_program`: the
    attacker has exfiltrated one node's complete code layout (the
    worst-case single-node leak) and fires the harvested address at
    every node of the cluster. ``outcome.notes[leaked_key]`` must hold
    the leaked absolute address before the run starts — the harness
    (:func:`repro.attacks.analysis.run_attack_dist`) seeds it from the
    victim node's real layout, the way a live infoleak would.

    The leaked value is either one absolute address (a single-node
    leak, fired blindly at the whole fleet) or a per-node list (the
    attacker reconstructed *every* node's layout — what a homogeneous
    cluster's shared seed hands over — and tailors the payload each
    node receives, the dMVX/DMON threat model). Under per-node
    profiles (disjoint DCL arenas + one-way per-node ASLR streams) a
    single node's leak maps on that node only; every other node takes
    a wild jump and the divergence surfaces in one rendezvous round.
    """

    def main(ctx):
        libc = ctx.libc
        yield Compute(10_000)
        fd = yield from libc.open("/data/config.txt")
        assert fd >= 0
        yield from libc.read(fd, 64)
        yield from libc.close(fd)

        target = outcome.notes[leaked_key]
        if isinstance(target, (list, tuple)):
            target = target[ctx.process.replica_index]
        mapping = ctx.mem.find_mapping(target)
        executable = mapping is not None and mapping.prot & C.PROT_EXEC
        if not executable:
            ctx.mem.write(target, b"\x90")  # faults -> SIGSEGV
            return 1  # unreachable
        outcome.notes.setdefault("compromised", []).append(
            ctx.process.replica_index
        )
        sfd = yield from libc.open(SECRET_PATH)
        if sfd >= 0:
            _ret, data = yield from libc.read(sfd, 128)
            outcome.effect_occurred = True
            outcome.effect = "read %d bytes of %s" % (len(data), SECRET_PATH)
        yield Compute(50_000)
        return 0

    return Program(
        "victim-dist", main,
        files={"/data/config.txt": b"cfg", SECRET_PATH: SECRET_DATA},
    )


def _flatten_layouts(layouts):
    """Accept a flat replica family or a per-node collection of
    families (heterogeneous clusters hand one family per node)."""
    flat = []
    for item in layouts:
        if isinstance(item, (list, tuple)):
            flat.extend(item)
        else:
            flat.append(item)
    return flat


def dcl_analysis(layouts, payload_addr: int):
    """How many replicas consider the payload address executable code?

    ``layouts`` is either one replica family or a per-node set of
    families. Under DCL the answer is <= 1 by construction within a
    family; with per-node disjoint arenas it stays <= 1 across the
    *union* of every node's family (DESIGN.md §13)."""
    return address_valid_in(_flatten_layouts(layouts), payload_addr)
