package admission

import (
	"fmt"
	"sort"
)

// Tenant quotas layer fabric-wide, per-client admission budgets on top
// of the per-link registers: a long-lived multi-tenant fabric must
// enforce admission fairness per application/client, not just globally,
// or one churning tenant starves the rest. Each tenant carries two
// budgets mirroring the link allocator's two registers — a session
// count and a total guaranteed-bandwidth allocation (cycles per round,
// summed per hop-independent demand, i.e. one charge per session) — and
// establishment, renegotiation, degradation and re-promotion all settle
// against them.
//
// The empty tenant name "" is the default tenant: usage is tracked
// (so fairness ordering still sees it) but it is unlimited unless a
// quota is explicitly set for it.

// TenantQuota is one tenant's admission budget. Zero fields mean
// unlimited.
type TenantQuota struct {
	MaxSessions   int // concurrent sessions (guaranteed or degraded); 0 = unlimited
	MaxGuaranteed int // total guaranteed cycles/round across sessions; 0 = unlimited
}

// TenantUsage is one tenant's current admission charge.
type TenantUsage struct {
	Sessions   int // live sessions: open, fault-broken awaiting restore, or degraded
	Guaranteed int // guaranteed cycles/round held (or held-for-restore) by those sessions
}

// TenantTable tracks quota and usage per tenant. It is not
// goroutine-safe: like the link allocators it lives on the network's
// serial control path.
type TenantTable struct {
	quotas map[string]TenantQuota
	usage  map[string]TenantUsage
}

// NewTenantTable returns an empty table: every tenant unlimited, no
// usage.
func NewTenantTable() *TenantTable {
	return &TenantTable{
		quotas: map[string]TenantQuota{},
		usage:  map[string]TenantUsage{},
	}
}

// SetQuota installs (or replaces) a tenant's budget. A zero quota
// removes the limit but keeps the tenant's usage tracking. Quotas may
// be set below current usage: existing sessions are never evicted, but
// new admissions (and re-promotions) are refused until usage drains
// under the new ceiling.
func (t *TenantTable) SetQuota(name string, q TenantQuota) {
	if q.MaxSessions < 0 || q.MaxGuaranteed < 0 {
		panic(fmt.Sprintf("admission: negative tenant quota %+v", q))
	}
	t.quotas[name] = q
}

// Quota returns a tenant's budget and whether one was explicitly set.
func (t *TenantTable) Quota(name string) (TenantQuota, bool) {
	q, ok := t.quotas[name]
	return q, ok
}

// Usage returns a tenant's current charge.
func (t *TenantTable) Usage(name string) TenantUsage { return t.usage[name] }

// Names returns every tenant with a quota or non-zero usage history,
// sorted — the only sanctioned iteration order, so callers stay
// deterministic.
func (t *TenantTable) Names() []string {
	seen := map[string]bool{}
	for name := range t.quotas {
		seen[name] = true
	}
	for name := range t.usage {
		seen[name] = true
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CanAdmit reports whether a new session demanding guaranteed
// cycles/round fits the tenant's budgets.
func (t *TenantTable) CanAdmit(name string, guaranteed int) bool {
	q := t.quotas[name]
	u := t.usage[name]
	if q.MaxSessions > 0 && u.Sessions+1 > q.MaxSessions {
		return false
	}
	if q.MaxGuaranteed > 0 && u.Guaranteed+guaranteed > q.MaxGuaranteed {
		return false
	}
	return true
}

// AdmitSession charges a new session with its guaranteed demand,
// reporting success. On refusal nothing is charged.
func (t *TenantTable) AdmitSession(name string, guaranteed int) bool {
	if !t.CanAdmit(name, guaranteed) {
		return false
	}
	u := t.usage[name]
	u.Sessions++
	u.Guaranteed += guaranteed
	t.usage[name] = u
	return true
}

// ChargeGuaranteed re-charges guaranteed bandwidth to an existing
// session — the re-promotion path, where the session count is already
// held and only the bandwidth budget must re-fit. Reports success.
func (t *TenantTable) ChargeGuaranteed(name string, guaranteed int) bool {
	q := t.quotas[name]
	u := t.usage[name]
	if q.MaxGuaranteed > 0 && u.Guaranteed+guaranteed > q.MaxGuaranteed {
		return false
	}
	u.Guaranteed += guaranteed
	t.usage[name] = u
	return true
}

// AdjustGuaranteed changes an existing session's guaranteed charge by
// delta — the tenant side of §4.3's bandwidth renegotiation. Growth is
// quota-tested; shrinking always succeeds.
func (t *TenantTable) AdjustGuaranteed(name string, delta int) bool {
	q := t.quotas[name]
	u := t.usage[name]
	if delta > 0 && q.MaxGuaranteed > 0 && u.Guaranteed+delta > q.MaxGuaranteed {
		return false
	}
	u.Guaranteed += delta
	if u.Guaranteed < 0 {
		panic("admission: tenant guaranteed charge below zero")
	}
	t.usage[name] = u
	return true
}

// ReleaseGuaranteed refunds guaranteed bandwidth without ending the
// session — degradation keeps the session alive on best-effort service.
func (t *TenantTable) ReleaseGuaranteed(name string, guaranteed int) {
	u := t.usage[name]
	u.Guaranteed -= guaranteed
	if u.Guaranteed < 0 {
		panic("admission: tenant guaranteed release without matching charge")
	}
	t.usage[name] = u
}

// ReleaseSession ends a session that holds no guaranteed charge (close
// of a degraded session, or loss after degradation refunded it).
func (t *TenantTable) ReleaseSession(name string) {
	u := t.usage[name]
	u.Sessions--
	if u.Sessions < 0 {
		panic("admission: tenant session release without matching admit")
	}
	t.usage[name] = u
}

// ReleaseAll refunds both a session and its guaranteed charge — the
// graceful close of a guaranteed session.
func (t *TenantTable) ReleaseAll(name string, guaranteed int) {
	t.ReleaseGuaranteed(name, guaranteed)
	t.ReleaseSession(name)
}

// GuaranteedFraction returns how much of the tenant's guaranteed budget
// is in use, for fairness ordering. Unlimited tenants report their raw
// usage normalized to a nominal unit budget, so among unlimited tenants
// lower absolute usage still sorts first.
func (t *TenantTable) GuaranteedFraction(name string) float64 {
	q := t.quotas[name]
	u := t.usage[name]
	if q.MaxGuaranteed > 0 {
		return float64(u.Guaranteed) / float64(q.MaxGuaranteed)
	}
	return float64(u.Guaranteed)
}

// RestoreSession re-applies one restored session's charge without any
// quota check: the session was admitted by the fabric that wrote the
// checkpoint, and a quota since lowered below live usage must refuse new
// admissions, not fail the restore.
func (t *TenantTable) RestoreSession(name string, guaranteed int) {
	u := t.usage[name]
	u.Sessions++
	u.Guaranteed += guaranteed
	t.usage[name] = u
}
