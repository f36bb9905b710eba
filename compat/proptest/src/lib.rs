//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the *API subset* its property tests use: the [`Strategy`] trait with
//! `prop_map`, integer/float range strategies, tuple strategies,
//! [`Just`], `prop::collection::vec`, `prop::sample::select`, `any::<T>()`,
//! and the `proptest!` / `prop_assert*` / `prop_assume!` / `prop_oneof!`
//! macros. There is no shrinking: a failing case panics with the assertion
//! message. Generation is deterministic per test (seeded from the test
//! name), so failures reproduce exactly on re-run.

use core::fmt;

/// Deterministic generator driving strategy sampling (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream deterministically from a test name.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name, then a fixed tweak so short names do not
        // collapse onto tiny states.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() as usize) % bound
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case asked to be discarded (`prop_assume!` failed).
    Reject(String),
    /// A property assertion failed.
    Fail(String),
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, T, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e as i128 - s as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (s as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a canonical full-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: core::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: core::marker::PhantomData,
    }
}

/// A boxed, type-erased strategy (what `prop_oneof!` arms become).
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

/// Boxes a strategy, erasing its concrete type.
pub fn boxed_strategy<S>(s: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// Uniform choice between heterogeneous strategies of one value type.
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

impl<V> Union<V> {
    /// Builds a union over the given arms; must be nonempty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Accepted length specifications for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            SizeRange {
                min: r.start,
                max: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            SizeRange {
                min: *r.start(),
                max: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a random length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors of values drawn from `elem`, with a length drawn
    /// from `size` (a `usize` or a `usize` range).
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max - self.size.min;
            let len = if span <= 1 {
                self.size.min
            } else {
                self.size.min + rng.below(span)
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy choosing uniformly from a fixed set of values.
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    /// Uniform choice from `options`; must be nonempty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len())].clone()
        }
    }
}

/// The case-driving loop behind the `proptest!` macro.
pub mod runner {
    use super::{ProptestConfig, TestCaseError, TestRng};

    /// Runs `case` until `cfg.cases` cases pass, panicking on the first
    /// failure and tolerating a bounded number of `prop_assume!` rejects.
    pub fn run<F>(cfg: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let mut rng = TestRng::deterministic(name);
        let mut passed: u32 = 0;
        let mut rejected: u32 = 0;
        let reject_budget = cfg.cases.saturating_mul(50).saturating_add(100);
        while passed < cfg.cases {
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejected += 1;
                    if rejected > reject_budget {
                        panic!(
                            "property `{name}`: too many rejected cases \
                             ({rejected} rejects for {passed} passes)"
                        );
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("property `{name}` failed after {passed} passing cases: {msg}");
                }
            }
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares property tests. Each function runs `cases` times with fresh
/// values drawn from the strategies after `in`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            $crate::runner::run(&__cfg, stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)+
                let __out: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                __out
            });
        }
        $crate::__proptest_fns! { @cfg($cfg) $($rest)* }
    };
}

/// Fails the current case with an assertion message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        $crate::prop_assert!(($left) == ($right), $($fmt)+)
    };
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

/// Discards the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies that all yield the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed_strategy($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::deterministic("ranges");
        for _ in 0..500 {
            let v = (3u64..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u8..=3).generate(&mut rng);
            assert!((1..=3).contains(&w));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_and_select_and_oneof_compose() {
        let mut rng = crate::TestRng::deterministic("compose");
        let strat = (
            prop::sample::select(vec![10u64, 20]),
            prop::collection::vec(0usize..4, 1..3),
        )
            .prop_map(|(p, v)| (p, v.len()));
        for _ in 0..200 {
            let (p, n) = strat.generate(&mut rng);
            assert!(p == 10 || p == 20);
            assert!((1..3).contains(&n));
        }
        let u = prop_oneof![Just(1u8), 2u8..=3, (0u8..1).prop_map(|x| x + 4)];
        for _ in 0..200 {
            let v = u.generate(&mut rng);
            assert!(v == 1 || v == 2 || v == 3 || v == 4);
        }
    }

    #[test]
    fn exact_len_vec() {
        let mut rng = crate::TestRng::deterministic("exact");
        let v = prop::collection::vec(any::<bool>(), 12).generate(&mut rng);
        assert_eq!(v.len(), 12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_smoke(a in 0u64..50, b in any::<bool>(), v in prop::collection::vec(0usize..3, 1..4)) {
            prop_assume!(a != 13);
            prop_assert!(a < 50);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(a + 1, a);
            if b {
                prop_assert!(v.len() < 4, "len {} out of bounds", v.len());
            }
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0i32..10) {
            prop_assert!((0..10).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failing_property_panics() {
        proptest! {
            fn inner(x in 0u8..4) {
                prop_assert!(x > 100, "x={} is not large", x);
            }
        }
        inner();
    }
}
