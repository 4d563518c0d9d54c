//! Linial's color reduction on `G²` (Theorem B.1).
//!
//! Starting from the unique `O(log n)`-bit identifiers (a coloring with
//! `K₀ = n` colors), each iteration maps the current coloring to one with
//! fewer colors via polynomials over a prime field: a color `c < K` is read
//! as the coefficient vector of a polynomial `p_c` of degree ≤ `d` over
//! `F_q`; a node picks an evaluation point `x` where its polynomial differs
//! from all conflict neighbors' polynomials (possible because distinct
//! degree-`d` polynomials agree on ≤ `d` points and `q > ∆_c · d`), and
//! adopts the new color `(x, p_c(x)) ∈ [q²]`.
//!
//! After `O(log* n)` iterations the palette stabilizes at
//! `K* = O(∆_c²)` — `O(∆⁴)` for the full d2 problem.
//!
//! Each iteration requires every node to know its conflict neighbors'
//! current colors; the pipelined relay of [`GatherCore`] delivers them in
//! `⌈∆ · bits(K) / budget⌉ + 2` rounds, giving the `O(∆ + log* n)` total
//! of Theorem B.1 (the `∆` cost is paid only while colors are wide; later
//! iterations bundle many shrunken colors per message).

use super::{gather::DetMsg, GatherCore, Scope};
use congest::{Inbox, NodeCtx, NodeRng, Outbox, Protocol, Status};
use graphs::Graph;

/// Parameters of one Linial iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterPlan {
    /// Size of the incoming color space.
    pub k_in: u64,
    /// Field size (prime).
    pub q: u64,
    /// Polynomial degree bound.
    pub d: u32,
    /// Size of the outgoing color space (`q²`).
    pub k_out: u64,
}

/// Smallest `r` with `r^e ≥ k`.
fn iroot(k: u64, e: u32) -> u64 {
    if k <= 1 {
        return 1;
    }
    let mut r = (k as f64).powf(1.0 / f64::from(e)).round() as u64;
    r = r.max(1);
    while pow_ge(r, e, k) && r > 1 && pow_ge(r - 1, e, k) {
        r -= 1;
    }
    while !pow_ge(r, e, k) {
        r += 1;
    }
    r
}

/// `r^e ≥ k`, overflow-safe.
fn pow_ge(r: u64, e: u32, k: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..e {
        acc *= u128::from(r);
        if acc >= u128::from(k) {
            return true;
        }
    }
    acc >= u128::from(k)
}

/// The best single Linial step from `k` colors: minimizes the outgoing
/// space `q²` over the degree `d`.
///
/// # Panics
///
/// Panics if the best field size exceeds `u32::MAX`, past which the u64
/// evaluation kernel of [`reduce_color`] could overflow.
fn best_step(k: u64, delta_c: u64) -> IterPlan {
    let dc = delta_c.max(1);
    // `q²` is monotone in `q`, so the smallest field gives the smallest
    // outgoing space (ties keep the lowest degree).
    let mut best: Option<(u64, u32)> = None;
    for d in 1..=8u32 {
        let r = iroot(k, d + 1);
        let qbase = (dc * u64::from(d)).max(r.saturating_sub(1));
        let mut q = crate::common::next_prime(qbase);
        while !pow_ge(q, d + 1, k) {
            q = crate::common::next_prime(q);
        }
        if best.is_none_or(|(bq, _)| q < bq) {
            best = Some((q, d));
        }
    }
    let (q, d) = best.expect("d = 1 always yields a plan");
    assert!(
        q <= u64::from(u32::MAX),
        "Linial field size q = {q} exceeds u32::MAX (k = {k}, ∆_c = {delta_c})"
    );
    IterPlan {
        k_in: k,
        q,
        d,
        k_out: q * q,
    }
}

/// The full iteration schedule from `k0` colors down to the fixed point.
/// Globally derivable from `(n, ∆_c)`, so every node computes the same
/// schedule — the network needs no coordination rounds.
#[must_use]
pub fn schedule(k0: u64, delta_c: u64) -> Vec<IterPlan> {
    let mut k = k0;
    let mut plans = Vec::new();
    for _ in 0..64 {
        let p = best_step(k, delta_c);
        if p.k_out >= k {
            break;
        }
        plans.push(p);
        k = p.k_out;
    }
    plans
}

/// The color space size after running the schedule.
#[must_use]
pub fn final_k(k0: u64, delta_c: u64) -> u64 {
    schedule(k0, delta_c).last().map_or(k0, |p| p.k_out)
}

/// `p(x) mod q` by Horner over coefficients lowest first. Exact in u64
/// because [`best_step`] keeps `q ≤ u32::MAX`: every step stays at most
/// `(q − 1)² + (q − 1) < q² < 2⁶⁴`.
fn poly_eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
    coeffs.iter().rev().fold(0, |acc, &a| (acc * x + a) % q)
}

/// One node's color update given its conflict neighbors' colors: the
/// first point `x` where the node's polynomial differs from every
/// conflicting one, encoded as `x·q + p(x)`.
fn reduce_color(color: u64, plan: &IterPlan, conflicts: &[u32]) -> u64 {
    let (q, width) = (plan.q, plan.d as usize + 1);
    // Base-q digits, lowest first: the node's own row, then one row per
    // conflicting color.
    let mut coeffs = Vec::with_capacity(width * (conflicts.len() + 1));
    let conflicting = conflicts
        .iter()
        .map(|&c| u64::from(c))
        .filter(|&c| c != color);
    for mut c in std::iter::once(color).chain(conflicting) {
        for _ in 0..width {
            coeffs.push(c % q);
            c /= q;
        }
    }
    let (mine, others) = coeffs.split_at(width);
    for x in 0..q {
        let v = poly_eval(mine, x, q);
        if others.chunks_exact(width).all(|o| poly_eval(o, x, q) != v) {
            return x * q + v;
        }
    }
    unreachable!("q > ∆_c · d guarantees a good evaluation point")
}

/// The Linial protocol. Initial colors default to node identifiers
/// (`K₀ = n`); Theorem 3.4's recursion passes explicit colorings instead.
#[derive(Debug)]
pub struct Linial {
    scope: Scope,
    nbr_parts: super::NbrParts,
    init_colors: Option<Vec<u64>>,
    plans: Vec<IterPlan>,
    budget: u64,
}

impl Linial {
    /// Builds the protocol for `scope` starting from `k0` colors.
    ///
    /// `init_colors` of `None` uses node identifiers (requires `k0 ≥ n`).
    #[must_use]
    pub fn new(
        g: &Graph,
        scope: Scope,
        init_colors: Option<Vec<u64>>,
        k0: u64,
        budget: u64,
    ) -> Self {
        let nbr_parts = scope.nbr_parts(g);
        let plans = schedule(k0, scope.delta_c as u64);
        Linial {
            scope,
            nbr_parts,
            init_colors,
            plans,
            budget,
        }
    }

    /// The color-space size this instance converges to.
    #[must_use]
    pub fn output_k(&self, k0: u64) -> u64 {
        self.plans.last().map_or(k0, |p| p.k_out)
    }

    fn new_gather(&self, ctx: &NodeCtx, iter: usize) -> GatherCore {
        let bits = graphs::ceil_log2(self.plans[iter].k_in.max(2));
        GatherCore::new(
            ctx.degree(),
            self.scope.dist,
            ctx.max_degree,
            bits,
            self.budget,
        )
    }
}

/// Per-node Linial state.
#[derive(Debug, Clone)]
pub struct LinialState {
    /// Current color (`< k` for the current stage; meaningless if inactive).
    pub color: u64,
    iter: usize,
    gather: Option<GatherCore>,
}

impl Protocol for Linial {
    type State = LinialState;
    type Msg = DetMsg;

    fn init(&self, ctx: &NodeCtx, _rng: &mut NodeRng) -> LinialState {
        let color = match &self.init_colors {
            Some(v) => v[ctx.index as usize],
            None => ctx.ident,
        };
        LinialState {
            color,
            iter: 0,
            gather: None,
        }
    }

    fn round(
        &self,
        st: &mut LinialState,
        ctx: &NodeCtx,
        _rng: &mut NodeRng,
        inbox: &Inbox<DetMsg>,
        out: &mut Outbox<DetMsg>,
    ) -> Status {
        if st.iter >= self.plans.len() {
            return Status::Done;
        }
        if st.gather.is_none() {
            st.gather = Some(self.new_gather(ctx, st.iter));
        }
        let v = ctx.index as usize;
        let active = self.scope.is_active(v);
        let my_part = self.scope.part[v];
        let received = inbox.as_slice();
        loop {
            let gather = st.gather.as_mut().expect("set above");
            let my_color = if active { Some(st.color as u32) } else { None };
            let complete = gather.step(
                my_color,
                my_part,
                self.nbr_parts.row(v),
                received,
                |p, m| out.send(p, m),
            );
            if !complete {
                return Status::Running;
            }
            // Fold this iteration: compute the new color, move on.
            if active {
                st.color = reduce_color(st.color, &self.plans[st.iter], &gather.collected);
            }
            st.iter += 1;
            if st.iter >= self.plans.len() {
                return Status::Done;
            }
            // Start the next iteration's gather in this same round (its
            // round 0 only sends, so the inbox is not consumed again).
            st.gather = Some(self.new_gather(ctx, st.iter));
        }
    }
}

/// Convenience accessor used by drivers.
impl LinialState {
    /// Final color as `u32` (all realistic schedules fit).
    ///
    /// # Panics
    ///
    /// Panics if the color exceeds `u32::MAX` (would require `∆_c ≳ 2¹⁶`).
    #[must_use]
    pub fn color_u32(&self) -> u32 {
        u32::try_from(self.color).expect("palette fits in u32")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::Dist;
    use congest::SimConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The u128 kernel the u64 one replaced, kept as the reference it must
    /// reproduce bit for bit.
    mod u128_reference {
        use crate::det::linial::IterPlan;

        /// Digits of `c` base `q`, lowest first (`d + 1` coefficients).
        pub fn poly_coeffs(c: u64, q: u64, d: u32) -> Vec<u64> {
            let mut c = c;
            (0..=d)
                .map(|_| {
                    let digit = c % q;
                    c /= q;
                    digit
                })
                .collect()
        }

        pub fn poly_eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
            let mut acc: u128 = 0;
            for &a in coeffs.iter().rev() {
                acc = (acc * u128::from(x) + u128::from(a)) % u128::from(q);
            }
            acc as u64
        }

        pub fn reduce_color(color: u64, plan: &IterPlan, conflicts: &[u64]) -> u64 {
            let my = poly_coeffs(color, plan.q, plan.d);
            let others: Vec<Vec<u64>> = conflicts
                .iter()
                .filter(|&&c| c != color)
                .map(|&c| poly_coeffs(c, plan.q, plan.d))
                .collect();
            for x in 0..plan.q {
                let mine = poly_eval(&my, x, plan.q);
                if others.iter().all(|o| poly_eval(o, x, plan.q) != mine) {
                    return x * plan.q + mine;
                }
            }
            unreachable!("q > ∆_c · d guarantees a good evaluation point")
        }
    }

    #[test]
    fn iroot_exactness() {
        assert_eq!(iroot(1, 2), 1);
        assert_eq!(iroot(4, 2), 2);
        assert_eq!(iroot(5, 2), 3);
        assert_eq!(iroot(27, 3), 3);
        assert_eq!(iroot(28, 3), 4);
        assert_eq!(iroot(1_000_000, 2), 1000);
    }

    #[test]
    fn poly_roundtrip() {
        let q = 7;
        let c = 5 * 49 + 3 * 7 + 2; // coefficients [2, 3, 5]
        let coeffs = u128_reference::poly_coeffs(c, q, 2);
        assert_eq!(coeffs, vec![2, 3, 5]);
        assert_eq!(poly_eval(&coeffs, 0, q), 2);
        assert_eq!(poly_eval(&coeffs, 1, q), 10 % 7);
    }

    #[test]
    fn schedule_converges_to_delta_c_squared() {
        let plans = schedule(1 << 20, 16);
        assert!(!plans.is_empty());
        let k_final = plans.last().unwrap().k_out;
        // Fixed point is (next prime > 2∆_c + 1)² = O(∆_c²); allow 16∆_c².
        assert!(k_final <= 16 * 16 * 16, "k_final = {k_final}");
        // Monotone decreasing.
        for w in plans.windows(2) {
            assert!(w[1].k_in == w[0].k_out && w[1].k_out < w[0].k_out);
        }
        // log*-ish length.
        assert!(plans.len() <= 10, "len = {}", plans.len());
    }

    #[test]
    fn schedule_empty_when_already_small() {
        assert!(schedule(10, 100).is_empty());
        assert_eq!(final_k(10, 100), 10);
    }

    #[test]
    fn reduce_color_avoids_conflicts() {
        let plan = best_step(1000, 5);
        let mine = 700u64;
        let conflicts = [1, 2, 3, 700, 999];
        let new = reduce_color(mine, &plan, &conflicts);
        assert!(new < plan.k_out);
        // Decode (x, value) and check no conflicting polynomial matches.
        let (x, val) = (new / plan.q, new % plan.q);
        for c in conflicts
            .iter()
            .map(|&c| u64::from(c))
            .filter(|&c| c != mine)
        {
            let pc = u128_reference::poly_coeffs(c, plan.q, plan.d);
            assert_ne!(poly_eval(&pc, x, plan.q), val);
        }
    }

    /// `len` conflict colors for a node colored `color` under `plan`, below
    /// `k_in` and `2³²` as gathered. Most are built to agree with the
    /// node's polynomial at one of the first points, so the search for a
    /// good point runs past `x = 0`.
    fn conflicts_for(rng: &mut ChaCha8Rng, color: u64, plan: &IterPlan, len: usize) -> Vec<u32> {
        let (q, bound) = (plan.q, plan.k_in.min(1 << 32));
        let mine = u128_reference::poly_coeffs(color, q, plan.d);
        (0..len)
            .map(|_| {
                let r = rng.gen_range(0..bound);
                let mut b = u128_reference::poly_coeffs(r, q, plan.d);
                b[0] = 0;
                let j = rng.gen_range(0..q.min(2 * len as u64 + 1));
                let target = u128_reference::poly_eval(&mine, j, q);
                b[0] = (target + q - u128_reference::poly_eval(&b, j, q)) % q;
                let agreeing = b
                    .iter()
                    .rev()
                    .fold(0u128, |acc, &a| acc * u128::from(q) + u128::from(a));
                let c = if rng.gen_bool(0.75) && agreeing < u128::from(bound) {
                    agreeing as u64
                } else {
                    r
                };
                u32::try_from(c).expect("below 2^32")
            })
            .collect()
    }

    #[test]
    fn u64_kernel_matches_the_u128_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x11a1);
        let mut plans: Vec<IterPlan> = [
            (100_000, 64),
            (1 << 20, 16),
            (1_000, 5),
            (u64::from(u32::MAX), 8),
            (50, 2),
        ]
        .into_iter()
        .flat_map(|(k0, dc)| {
            let plans = schedule(k0, dc);
            assert!(!plans.is_empty(), "({k0}, {dc}) schedules nothing");
            plans
        })
        .collect();
        // Fields next to the bound: the largest prime below 2³².
        let q = 4_294_967_291;
        let near_max = best_step(1_000, q - 1);
        assert_eq!((near_max.q, near_max.d), (q, 1));
        plans.push(near_max);
        plans.push(IterPlan {
            k_in: q * q,
            q,
            d: 1,
            k_out: q * q,
        });
        for plan in &plans {
            let max_len = (plan.q - 1) / u64::from(plan.d);
            for _ in 0..200 {
                let color = rng.gen_range(0..plan.k_in);
                let len = rng.gen_range(0..=max_len.min(64)) as usize;
                let conflicts = conflicts_for(&mut rng, color, plan, len);
                let wide: Vec<u64> = conflicts.iter().map(|&c| u64::from(c)).collect();
                assert_eq!(
                    reduce_color(color, plan, &conflicts),
                    u128_reference::reduce_color(color, plan, &wide),
                    "{plan:?}, color {color}, conflicts {conflicts:?}"
                );
            }
            // Horner alone, over the whole field and at its top corner.
            for _ in 0..200 {
                let coeffs: Vec<u64> = (0..=plan.d).map(|_| rng.gen_range(0..plan.q)).collect();
                let x = rng.gen_range(0..plan.q);
                assert_eq!(
                    poly_eval(&coeffs, x, plan.q),
                    u128_reference::poly_eval(&coeffs, x, plan.q)
                );
            }
            let top = vec![plan.q - 1; plan.d as usize + 1];
            assert_eq!(
                poly_eval(&top, plan.q - 1, plan.q),
                u128_reference::poly_eval(&top, plan.q - 1, plan.q)
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn best_step_rejects_a_field_past_u32() {
        let _ = best_step(1_000, 1 << 32);
    }

    /// End-to-end: run Linial at distance 2 on a random graph and check the
    /// result is a proper coloring of G² with the predicted palette.
    #[test]
    fn linial_colors_g_squared() {
        let g = graphs::gen::gnp_capped(120, 0.06, 5, 3);
        let scope = Scope::full_d2(&g);
        let cfg = SimConfig::seeded(7);
        let budget = cfg.bandwidth_bits(g.n());
        let proto = Linial::new(&g, scope, None, g.n() as u64, budget);
        let k_final = proto.output_k(g.n() as u64);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color_u32()).collect();
        assert!(
            graphs::verify::first_d2_violation(&g, &colors).is_none(),
            "Linial output must be d2-proper"
        );
        assert!(colors.iter().all(|&c| u64::from(c) < k_final));
        assert!(res.metrics.is_congest_compliant());
    }

    /// Distance-1, two parts: same-color across parts is fine.
    #[test]
    fn linial_part_scoped_d1() {
        let g = graphs::gen::cycle(10);
        let part: Vec<u32> = (0..10).map(|i| (i % 2) as u32).collect();
        let scope = Scope {
            part: part.clone(),
            dist: Dist::One,
            delta_c: 2,
        };
        let cfg = SimConfig::seeded(1);
        let budget = cfg.bandwidth_bits(g.n());
        let proto = Linial::new(&g, scope, None, 10, budget);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        let colors: Vec<u32> = res.states.iter().map(|s| s.color_u32()).collect();
        // Within a part (which here is an independent set at distance 2 on
        // the cycle... actually parts alternate so same-part nodes are at
        // distance 2 in G, i.e. NOT adjacent: no constraint binds, any
        // coloring is fine. Just check palette size.
        let k_final = final_k(10, 2);
        assert!(colors.iter().all(|&c| u64::from(c) < k_final));
    }

    #[test]
    fn empty_schedule_terminates_fast() {
        let g = graphs::gen::path(4);
        let scope = Scope::full_d2(&g);
        let cfg = SimConfig::seeded(1);
        // k0 tiny: nothing to do.
        let proto = Linial::new(&g, scope, Some(vec![0, 1, 2, 3]), 4, 64);
        let res = congest::run(&g, &proto, &cfg).unwrap();
        assert_eq!(res.metrics.rounds, 1);
    }
}
