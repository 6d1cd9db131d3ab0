//! Operation accounting, output checks and sample storage shared by
//! every workload.

use std::collections::BTreeMap;

/// Operations attempted and failed. An operation fails when it returns
/// an error or when its output differs from the workload's oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Flip one bit of every checked output before comparing it — the
    /// self-test that a corrupted output is counted as a failure.
    pub corrupt: bool,
}

impl Tally {
    /// A tally that corrupts outputs when `corrupt` is set.
    pub fn new(corrupt: bool) -> Tally {
        Tally {
            corrupt,
            ..Tally::default()
        }
    }

    /// Counts one operation with the given verdict; returns it.
    pub fn verdict(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one operation whose output `got` must equal `want` bit
    /// for bit. An error counts as a failure.
    pub fn floats<E>(&mut self, got: Result<Vec<f32>, E>, want: &[f32]) -> bool {
        let ok = match got {
            Ok(mut got) => {
                if self.corrupt {
                    if let Some(v) = got.first_mut() {
                        *v = f32::from_bits(v.to_bits() ^ 1);
                    }
                }
                same_bits(&got, want)
            }
            Err(_) => false,
        };
        self.verdict(ok)
    }

    /// Counts one operation whose text output `got` must equal `want`.
    pub fn text<E>(&mut self, got: Result<String, E>, want: &str) -> bool {
        let ok = match got {
            Ok(mut got) => {
                if self.corrupt {
                    got.push(' ');
                }
                got == want
            }
            Err(_) => false,
        };
        self.verdict(ok)
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Bitwise equality of two float slices (NaN payloads and signed
/// zeros included).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A bounded sample store thinned evenly over time: it keeps every
/// `stride`-th value offered, and when full it drops every other value
/// it holds and doubles the stride. A long run so keeps at most `cap`
/// values, spread evenly over the whole run, and its memory use does
/// not grow with the run's speed.
#[derive(Debug, Clone)]
pub struct Thinned<T> {
    cap: usize,
    stride: u64,
    offered: u64,
    kept: Vec<T>,
}

impl<T> Thinned<T> {
    /// An empty store holding at most `cap` (at least 2) values.
    pub fn new(cap: usize) -> Thinned<T> {
        Thinned {
            cap: cap.max(2),
            stride: 1,
            offered: 0,
            kept: Vec::new(),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: T) {
        let i = self.offered;
        self.offered += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        self.kept.push(v);
        if self.kept.len() >= self.cap {
            let mut k = 0;
            self.kept.retain(|_| {
                k += 1;
                k % 2 == 1
            });
            self.stride *= 2;
        }
    }

    /// The values kept.
    pub fn values(&self) -> &[T] {
        &self.kept
    }
}

/// Samples kept per name.
const SAMPLES_PER_NAME: usize = 1 << 16;

/// Raw samples by name, in the unit the name states.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Thinned<f64>>);

impl Samples {
    /// Appends one sample.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0
            .entry(name.into())
            .or_insert_with(|| Thinned::new(SAMPLES_PER_NAME))
            .push(value);
    }

    /// Appends many samples.
    pub fn extend(&mut self, name: impl Into<String>, values: impl IntoIterator<Item = f64>) {
        let t = self
            .0
            .entry(name.into())
            .or_insert_with(|| Thinned::new(SAMPLES_PER_NAME));
        values.into_iter().for_each(|v| t.push(v));
    }

    /// The samples stored under `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Thinned::values)
    }
}

/// Seeded input values: the workload seed mixed with a per-stream
/// salt, so every stream of a workload differs and every seed gives
/// different inputs.
pub fn values(seed: u64, salt: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    brook_apps::framework::gen_values(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15), n, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_outputs_count_as_failures() {
        let want = vec![1.0f32, 2.0];
        let mut clean = Tally::new(false);
        assert!(clean.floats::<()>(Ok(want.clone()), &want));
        assert!(clean.text::<()>(Ok("ir".into()), "ir"));
        assert!(!clean.floats(Err(()), &want));
        assert_eq!((clean.attempted, clean.failed), (3, 1));
        let mut bad = Tally::new(true);
        assert!(!bad.floats::<()>(Ok(want.clone()), &want));
        assert!(!bad.text::<()>(Ok("ir".into()), "ir"));
        assert_eq!((bad.attempted, bad.failed), (2, 2));
    }

    #[test]
    fn thinned_store_keeps_an_even_bounded_subset() {
        let mut t = Thinned::new(8);
        (0..100u32).for_each(|i| t.push(i));
        let kept = t.values();
        assert!(kept.len() < 8);
        // Evenly strided from the first value on.
        let stride = kept[1] - kept[0];
        assert!(kept.iter().enumerate().all(|(i, v)| *v == i as u32 * stride));
        assert!(*kept.last().expect("kept") + 2 * stride > 99);
    }

    #[test]
    fn same_bits_distinguishes_signed_zero() {
        assert!(same_bits(&[0.0, f32::NAN], &[0.0, f32::NAN]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[0.0], &[0.0, 0.0]));
    }
}
