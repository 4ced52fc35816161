"""Security analysis tests (paper §4 and the §6 VARAN comparison)."""

import pytest

from repro.attacks import scenarios
from repro.attacks.analysis import run_attack, run_attack_varan
from repro.core import Level
from repro.core.temporal import TemporalPolicy


class TestCodeInjection:
    def test_dcl_blocks_payload_and_detects(self):
        outcome, result = run_attack(scenarios.code_injection_program)
        assert outcome.blocked, outcome.effect
        assert outcome.detected
        assert result.diverged

    def test_payload_compromises_at_most_one_replica(self):
        outcome, result = run_attack(scenarios.code_injection_program, replicas=3)
        assert len(outcome.notes.get("compromised", [])) <= 1
        assert outcome.blocked

    def test_without_diversity_payload_works_everywhere(self):
        """The counterfactual: identical layouts mean consistent
        compromise, which no MVEE can observe."""
        outcome, result = run_attack(
            scenarios.code_injection_program, aslr=False, dcl=False
        )
        assert outcome.effect_occurred
        assert not result.diverged
        assert len(outcome.notes.get("compromised", [])) == 2

    def test_exfiltration_over_unmonitored_socket_is_policy_risk(self):
        """At SOCKET_RW a compromised master can fire one unmonitored
        write before the dead slave would have validated it — exactly
        the residual window §4 accepts by policy. Detection still
        happens (the slave's crash)."""
        outcome, result = run_attack(
            scenarios.socket_exfil_program, level=Level.SOCKET_RW
        )
        assert outcome.effect_occurred
        assert outcome.detected

    def test_exfiltration_blocked_when_sockets_monitored(self):
        outcome, result = run_attack(
            scenarios.socket_exfil_program, level=Level.NONSOCKET_RW
        )
        assert outcome.blocked, outcome.effect
        assert outcome.detected


class TestArgumentCorruption:
    def test_ghumvee_blocks_divergent_open(self):
        outcome, result = run_attack(scenarios.corrupted_argument_program)
        assert outcome.blocked
        assert result.diverged
        assert result.divergence.detected_by == "ghumvee"
        assert result.divergence.syscall == "open"

    def test_ipmon_slave_check_blocks_divergent_unmonitored_args(self):
        """Divergent *unmonitored* call arguments are caught by the
        slave's PRECALL comparison (§3.3)."""
        from repro.guest.program import Compute, Program

        def factory(outcome):
            def main(ctx):
                libc = ctx.libc
                fd = yield from libc.open("/data/f.bin")
                yield Compute(1000)
                # Corrupted length argument in the master only.
                count = 64 if ctx.process.replica_index else 4096
                ret, _ = yield from libc.pread(fd, count, 0)
                if ret == 4096 and ctx.process.replica_index == 0:
                    outcome.effect_occurred = True
                return 0

            return Program("ipmon-div", main, files={"/data/f.bin": bytes(8192)})

        outcome, result = run_attack(factory, level=Level.NONSOCKET_RW)
        assert result.diverged
        assert result.divergence.detected_by == "ipmon"
        # Note the window: the master's call already ran (run-ahead is
        # the documented IP-MON trade-off); detection is guaranteed.
        assert outcome.detected


class TestRbProtection:
    def test_maps_are_scrubbed_and_guessing_fails(self):
        outcome, result = run_attack(scenarios.rb_discovery_program)
        assert outcome.blocked, outcome.effect
        assert outcome.notes.get("maps_scrubbed") is True
        assert outcome.notes.get("probes", 0) > 0
        assert "rb_addr" not in outcome.notes

    def test_rb_pointer_not_in_guest_memory(self):
        """The RB pointer lives only in 'kernel memory' (the broker's
        registration): no guest-readable location stores it."""
        from repro.core import ReMon, ReMonConfig
        from repro.guest.program import Compute, Program
        from repro.kernel import Kernel

        def main(ctx):
            yield Compute(1000)
            return 0

        kernel = Kernel()
        mvee = ReMon(kernel, Program("quiet", main), ReMonConfig())
        result = mvee.run(max_steps=2_000_000)
        assert not result.diverged
        for process, replica in zip(
            mvee.group.processes, mvee.ipmon.replicas
        ):
            rb_base = replica.rb_base_for_tests
            needle = rb_base.to_bytes(8, "little")
            for mapping in process.space.mappings():
                if mapping.name.startswith("[ipmon"):
                    continue
                data = bytes(
                    mapping.region.read(mapping.region_offset, mapping.length)
                )
                assert needle not in data, (
                    "RB pointer leaked into %s of %s" % (mapping.name, process.name)
                )

    def test_tampering_with_leaked_rb_is_detected(self):
        outcome, result = run_attack(scenarios.rb_tamper_program)
        assert outcome.effect_occurred  # the hypothetical leak happened
        assert result.diverged
        # Detection happens either at the slave's RB sanity check or at
        # the next lockstep comparison, depending on which corrupted
        # field the slave consumes first.
        assert result.divergence.detected_by in ("ipmon", "ghumvee")


class TestTokenForgery:
    def test_forged_token_forces_monitoring_and_divergence(self):
        outcome, result = run_attack(scenarios.token_forgery_program)
        assert result.diverged
        assert result.stats["broker_verification_failures"] >= 1

    def test_direct_restart_without_token_rejected(self):
        from repro.core import ReMon, ReMonConfig
        from repro.guest.program import Program
        from repro.kernel import Kernel
        from repro.kernel.syscalls import SyscallRequest

        probe = {}

        def main(ctx):
            broker = ctx.kernel.ikb
            req = SyscallRequest("getpid", (), site="ipmon", token=12345)
            ok, result = yield from broker.restart_call(ctx.thread, req)
            probe["ok"] = ok
            yield ctx.sys.getpid()
            return 0

        kernel = Kernel()
        mvee = ReMon(kernel, Program("restart-probe", main), ReMonConfig())
        mvee.run(max_steps=2_000_000)
        assert probe["ok"] is False


class TestVaranComparison:
    def test_varan_window_lets_sensitive_call_execute(self):
        outcome, result = run_attack_varan(scenarios.varan_window_program)
        assert outcome.effect_occurred  # executed before any check
        assert outcome.detected  # ... but detected (too) late

    def test_remon_blocks_the_same_attack(self):
        outcome, result = run_attack(scenarios.varan_window_program)
        assert outcome.blocked, outcome.effect
        assert outcome.detected

    def test_unaligned_gadget_bypasses_varan_entirely(self):
        outcome, result = run_attack_varan(scenarios.unaligned_gadget_program)
        assert outcome.effect_occurred
        assert not outcome.detected  # VARAN never sees the call

    def test_ikb_intercepts_unaligned_gadget(self):
        outcome, result = run_attack(scenarios.unaligned_gadget_program)
        assert outcome.blocked, outcome.effect
        assert outcome.detected


class TestTemporalPolicies:
    def test_deterministic_temporal_policy_is_exploitable(self):
        policy = TemporalPolicy(threshold=4, deterministic=True)
        outcome, result = run_attack(
            scenarios.temporal_abuse_program,
            level=Level.NONSOCKET_RW,
            temporal=policy,
        )
        assert not result.diverged, result.divergence
        assert outcome.effect_occurred  # guaranteed exemption

    def test_stochastic_temporal_policy_is_not_reliable(self):
        policy = TemporalPolicy(
            threshold=4, exempt_probability=0.02, seed=99
        )
        outcome, result = run_attack(
            scenarios.temporal_abuse_program,
            level=Level.NONSOCKET_RW,
            temporal=policy,
        )
        assert not result.diverged, result.divergence
        assert not outcome.effect_occurred

    def test_no_temporal_policy_always_monitors(self):
        outcome, result = run_attack(
            scenarios.temporal_abuse_program, level=Level.NONSOCKET_RW
        )
        assert not result.diverged, result.divergence
        assert not outcome.effect_occurred
