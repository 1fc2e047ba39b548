"""Per-tenant admission control (`repro.server.admission`)."""

import pytest

from repro import obs
from repro.errors import Overloaded, TenantLimit
from repro.server.admission import AdmissionController, TenantPolicy


def make(policy=None, tenants=("acme",)):
    policy = policy or TenantPolicy()
    return AdmissionController({t: policy for t in tenants})


class TestTenantLookup:
    def test_unknown_tenant_rejected(self):
        ctl = make()
        with pytest.raises(TenantLimit):
            ctl.tenant("stranger")

    def test_no_tenant_rejected(self):
        with pytest.raises(TenantLimit):
            make().tenant(None)


class TestSessions:
    def test_session_cap_typed_and_retryable(self):
        ctl = make(TenantPolicy(max_sessions=2))
        t = ctl.admit_session("acme")
        ctl.admit_session("acme")
        with pytest.raises(TenantLimit) as ei:
            ctl.admit_session("acme")
        assert ei.value.retryable is True
        # Releasing a slot re-opens admission.
        ctl.release_session(t)
        assert ctl.admit_session("acme").sessions == 2

    def test_draining_rejects_sessions_as_overloaded(self):
        ctl = make()
        ctl.draining = True
        with pytest.raises(Overloaded) as ei:
            ctl.admit_session("acme")
        assert ei.value.retryable is True

    def test_release_never_goes_negative(self):
        ctl = make()
        t = ctl.tenant("acme")
        ctl.release_session(t)
        assert t.sessions == 0


class TestRequests:
    def test_per_read_bound_overflows_to_overloaded(self):
        ctl = make(TenantPolicy(max_burst=2), tenants=("acme", "initech"))
        acme, initech = ctl.tenant("acme"), ctl.tenant("initech")
        ctl.admit_request(acme)
        ctl.admit_request(acme)
        with pytest.raises(Overloaded) as ei:
            ctl.admit_request(acme)
        assert ei.value.retryable is True
        assert "per-read bound" in str(ei.value)
        # The bound is each tenant's own, and lasts as long as the read.
        ctl.admit_request(initech)
        ctl.end_read()
        ctl.admit_request(acme)

    def test_draining_rejects_requests(self):
        ctl = make()
        ctl.draining = True
        with pytest.raises(Overloaded):
            ctl.admit_request(ctl.tenant("acme"))

    def test_reject_metrics_labelled_by_reason(self):
        obs.reset()
        obs.enable()
        try:
            ctl = make(TenantPolicy(max_burst=1))
            acme = ctl.tenant("acme")
            ctl.admit_request(acme)
            with pytest.raises(Overloaded):
                ctl.admit_request(acme)
            ctl.draining = True
            with pytest.raises(Overloaded):
                ctl.admit_request(acme)
            rejects = {
                dict(c.labels)["reason"]: c.value
                for c in obs.metrics.counters()
                if c.name == "server.rejects"
            }
            assert rejects == {"max_burst": 1, "draining": 1}
        finally:
            obs.disable()
            obs.reset()
