//! Property-based tests for the dimensional algebra.

use cim_units::{
    dyadic, Conductance, Current, Energy, Frequency, Power, Resistance, Time, Voltage,
};
use proptest::prelude::*;

fn finite_positive() -> impl Strategy<Value = f64> {
    // Keep magnitudes in a range where f64 round-trips stay well-conditioned.
    prop::num::f64::POSITIVE.prop_filter("finite, sane magnitude", |v| {
        v.is_finite() && *v > 1e-30 && *v < 1e30
    })
}

proptest! {
    #[test]
    fn dyadic_is_finite_sign_preserving_and_idempotent(bits in any::<u64>()) {
        // Uniform over bit patterns, so subnormals and the top of the
        // exponent range turn up as often as everyday magnitudes.
        let value = f64::from_bits(bits);
        prop_assume!(value.is_finite());
        let q = dyadic(value);
        prop_assert!(q.is_finite(), "{:#018x} -> {}", bits, q);
        prop_assert_eq!(q.is_sign_negative(), value.is_sign_negative());
        let again = dyadic(q);
        prop_assert_eq!(again.to_bits(), q.to_bits(), "not idempotent at {:#018x}", bits);
    }

    #[test]
    fn power_time_energy_triangle(p in finite_positive(), t in finite_positive()) {
        let power = Power::new(p);
        let time = Time::new(t);
        let energy = power * time;
        // E / t == P and E / P == t (up to floating-point rounding).
        prop_assert!(((energy / time).get() - p).abs() <= p * 1e-12);
        prop_assert!(((energy / power).get() - t).abs() <= t * 1e-12);
    }

    #[test]
    fn ohms_law_triangle(v in finite_positive(), r in finite_positive()) {
        let volt = Voltage::new(v);
        let res = Resistance::new(r);
        let i = volt / res;
        prop_assert!(((i * res).get() - v).abs() <= v * 1e-12);
        prop_assert!(((volt / i).get() - r).abs() <= r * 1e-12);
    }

    #[test]
    fn conductance_is_involutive(r in finite_positive()) {
        let res = Resistance::new(r);
        let back = res.to_conductance().to_resistance();
        prop_assert!((back.get() - r).abs() <= r * 1e-12);
    }

    #[test]
    fn addition_commutes_and_scalar_distributes(a in finite_positive(), b in finite_positive(), k in 0.001f64..1000.0) {
        let x = Energy::new(a);
        let y = Energy::new(b);
        prop_assert_eq!((x + y).get(), (y + x).get());
        let lhs = (x + y) * k;
        let rhs = x * k + y * k;
        prop_assert!((lhs.get() - rhs.get()).abs() <= lhs.get().abs() * 1e-12);
    }

    #[test]
    fn like_ratio_is_scale_free(a in finite_positive(), k in 0.001f64..1000.0) {
        let x = Time::new(a);
        let y = Time::new(a * k);
        prop_assert!((y / x - k).abs() <= k * 1e-12);
    }

    #[test]
    fn frequency_period_round_trip(f in finite_positive()) {
        let freq = Frequency::new(f);
        let back = freq.period().to_frequency();
        prop_assert!((back.get() - f).abs() <= f * 1e-12);
    }

    #[test]
    fn cycles_cover_duration(ns in 0.001f64..1e6) {
        let t = Time::from_nano_seconds(ns);
        let clock = Frequency::from_giga_hertz(1.0);
        let cycles = t.in_cycles_of(clock);
        // ceil semantics: the cycles always cover the duration.
        prop_assert!(cycles as f64 * clock.period().as_nano_seconds() >= ns - 1e-9);
        prop_assert!((cycles as f64 - 1.0) * clock.period().as_nano_seconds() < ns);
    }

    #[test]
    fn display_never_empty(v in prop::num::f64::ANY) {
        let rendered = Energy::new(v).to_string();
        prop_assert!(!rendered.is_empty());
    }

    #[test]
    fn joule_heating_matches_vi(i in finite_positive(), r in finite_positive()) {
        let current = Current::new(i);
        let res = Resistance::new(r);
        let via_vi = (current * res) * current;
        let direct = current.joule_heating(res);
        prop_assert!((via_vi.get() - direct.get()).abs() <= direct.get() * 1e-12);
    }

    #[test]
    fn conductance_current(v in finite_positive(), g in finite_positive()) {
        let current = Conductance::new(g) * Voltage::new(v);
        prop_assert!((current.get() - g * v).abs() <= (g * v) * 1e-12);
    }
}
