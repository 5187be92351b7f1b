// Escapes fixture for `unused-allow`: an allow "escapes" the audit by
// being consumed — every directive here, trailing and standalone, still
// swallows a real violation, so the tree lints fully clean.

pub fn calc(total: u64, mask: u64, scale: f64) -> u64 {
    let packed = (total & mask) as u32; // aq-lint: allow(no-narrowing-cast)
    // aq-lint: allow(no-narrowing-cast)
    let low = (total >> 32) as u32;
    // aq-lint: allow(no-float-eq, no-narrowing-cast)
    let unit = if scale == 1.0 { packed } else { total as u32 };
    u64::from(low) + u64::from(unit)
}
