// Fires fixture for `unused-allow`: directives that no longer suppress
// anything, in trailing and standalone form, next to one that is still
// genuinely used (and must not fire). There is no way to sanction a stale
// allow — the fix is to delete it.

pub fn calc(total: u64, mask: u64) -> u64 {
    // This allow is consumed by a real violation: no diagnostic.
    let packed = (total & mask) as u32; // aq-lint: allow(no-narrowing-cast)
    // The cast below was widened long ago; its trailing escort is stale.
    let wide = total as u64; // aq-lint: allow(no-narrowing-cast) expect-lint: unused-allow
    // aq-lint: allow(no-float-eq) expect-lint: unused-allow (standalone, guards next line)
    let sum = wide + u64::from(packed);
    // Naming the audit itself suppresses nothing either.
    let out = sum; // aq-lint: allow(unused-allow) expect-lint: unused-allow
    out
}
