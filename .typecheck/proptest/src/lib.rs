//! Offline typecheck stub for `proptest` (the subset this repo uses):
//! `proptest!` with optional `#![proptest_config(..)]`, `any::<T>()`,
//! integer-range strategies, tuple strategies, `collection::vec`,
//! `prop_map`, `prop_oneof!`, and the `prop_assert*` macros.
//! Functional but non-shrinking.

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// Tiny deterministic rng for stub generation.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x5DEECE66D }
    }
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let s = Rc::new(self);
        BoxedStrategy(Rc::new(move |rng| s.generate(rng)))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

#[allow(clippy::type_complexity)]
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() as usize) % self.0.len();
        self.0[i].generate(rng)
    }
}

pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! strat_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty strategy range");
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
strat_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! strat_tuple {
    ($(($($n:ident | $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
strat_tuple! {
    (A | 0, B | 1)
    (A | 0, B | 1, C | 2)
    (A | 0, B | 1, C | 2, D | 3)
    (A | 0, B | 1, C | 2, D | 3, E | 4)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.start + (rng.next_u64() as usize) % (self.end - self.start)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.start() + (rng.next_u64() as usize) % (self.end() - self.start() + 1)
        }
    }

    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    pub fn vec<S: Strategy, R: SizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 16 }
        }
    }
}

/// The case loop behind `proptest!`.
#[doc(hidden)]
pub mod __runner {
    /// Case count and generator seed for one property. `PROPTEST_CASES`
    /// overrides the configured count and `PROPTEST_SEED` (decimal or
    /// `0x` hex) the default seed `0x9E3779B9 ^ cases`, so a sweep can
    /// explore fresh cases and a failure can be replayed exactly. Unset,
    /// every run replays the same cases.
    pub fn plan(configured: u32) -> (u32, u64) {
        let cases = match std::env::var("PROPTEST_CASES") {
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_CASES={v:?} is not a case count")),
            Err(_) => configured,
        };
        let seed = match std::env::var("PROPTEST_SEED") {
            Ok(v) => parse_seed(&v).unwrap_or_else(|| panic!("PROPTEST_SEED={v:?} is not a u64")),
            Err(_) => 0x9E37_79B9 ^ u64::from(cases),
        };
        (cases, seed)
    }

    fn parse_seed(v: &str) -> Option<u64> {
        let v = v.trim();
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    }

    /// Lives for one case; if the property panics, says how to replay it.
    pub struct CaseReport {
        pub name: &'static str,
        pub seed: u64,
        pub cases: u32,
        pub case: u32,
    }

    impl Drop for CaseReport {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest: {} failed at case {} (seed {:#x}); replay with \
                     PROPTEST_SEED={:#x} PROPTEST_CASES={}",
                    self.name, self.case, self.seed, self.seed, self.cases
                );
            }
        }
    }
}

pub mod strategy {
    pub use super::{BoxedStrategy, Just, Strategy, Union};
}

pub mod prelude {
    pub use super::collection;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::ProptestConfig;
    pub use super::{any, Arbitrary, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let (cases, seed) = $crate::__runner::plan(($cfg).cases);
            let mut __rng = $crate::TestRng::new(seed);
            for case in 0..cases {
                let __report = $crate::__runner::CaseReport {
                    name: stringify!($name),
                    seed,
                    cases,
                    case,
                };
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}
