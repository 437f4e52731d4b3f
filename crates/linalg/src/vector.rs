//! Dense `f64` column vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use rand::Rng;

/// A dense, heap-allocated column vector of `f64` values.
///
/// `Vector` is the unit of gradient exchange in the IS-GC reproduction:
/// per-partition gradients, coded (summed) gradients, and model parameter
/// blocks are all `Vector`s.
///
/// # Examples
///
/// ```
/// use isgc_linalg::Vector;
///
/// let g1 = Vector::from_slice(&[1.0, 2.0]);
/// let g2 = Vector::from_slice(&[3.0, -1.0]);
/// let coded = &g1 + &g2;
/// assert_eq!(coded.as_slice(), &[4.0, 1.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = isgc_linalg::Vector::zeros(3);
    /// assert_eq!(v.as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a vector by copying `slice`.
    pub fn from_slice(slice: &[f64]) -> Self {
        Self {
            data: slice.to_vec(),
        }
    }

    /// Creates a vector from a closure mapping index to value.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = isgc_linalg::Vector::from_fn(3, |i| i as f64 * 2.0);
    /// assert_eq!(v.as_slice(), &[0.0, 2.0, 4.0]);
    /// ```
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> f64) -> Self {
        Self {
            data: (0..len).map(f).collect(),
        }
    }

    /// Creates a vector with entries drawn from a standard normal
    /// distribution, via the Box–Muller transform (avoids a `rand_distr`
    /// dependency).
    pub fn random_normal<R: Rng + ?Sized>(len: usize, mean: f64, std: f64, rng: &mut R) -> Self {
        Self::from_fn(len, |_| mean + std * sample_standard_normal(rng))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector, returning its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        crate::kernels::dot(&self.data, &other.data)
    }

    /// Euclidean (`l2`) norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm; cheaper than `norm` when the root is not needed.
    pub fn norm_squared(&self) -> f64 {
        self.dot(self)
    }

    /// `l1` norm (sum of absolute values).
    pub fn norm_l1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Maximum absolute entry (`l∞` norm); `0.0` for an empty vector.
    ///
    /// NaN entries propagate: if any entry is NaN the result is NaN, so a
    /// diverged gradient cannot masquerade as a zero norm. (`f64::max`
    /// ignores NaN operands, which used to make an all-NaN vector report
    /// `norm_inf() == 0.0`.)
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| {
            let a = x.abs();
            if a.is_nan() || a > m {
                a
            } else {
                m
            }
        })
    }

    /// In-place `self += alpha * x` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) {
        crate::kernels::axpy(&mut self.data, alpha, &x.data);
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        crate::kernels::scale(&mut self.data, alpha);
    }

    /// Returns a scaled copy `alpha * self`, built in a single pass (no
    /// intermediate clone-then-scale).
    pub fn scaled(&self, alpha: f64) -> Vector {
        Self {
            data: self.data.iter().map(|x| x * alpha).collect(),
        }
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all entries, in the canonical blocked reduction order of
    /// [`crate::kernels::sum`].
    pub fn sum(&self) -> f64 {
        crate::kernels::sum(&self.data)
    }
}

/// Draws one standard normal sample via Box–Muller.
pub(crate) fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0,1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Vector").field(&self.data).finish()
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add: length mismatch");
        let mut out = self.clone();
        crate::kernels::axpy(&mut out.data, 1.0, &rhs.data);
        out
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub: length mismatch");
        let mut out = self.clone();
        crate::kernels::axpy(&mut out.data, -1.0, &rhs.data);
        out
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction() {
        assert_eq!(Vector::zeros(2).as_slice(), &[0.0, 0.0]);
        assert_eq!(Vector::filled(2, 3.0).as_slice(), &[3.0, 3.0]);
        assert_eq!(
            Vector::from_fn(3, |i| i as f64).as_slice(),
            &[0.0, 1.0, 2.0]
        );
        assert!(Vector::zeros(0).is_empty());
        assert_eq!(Vector::default().len(), 0);
    }

    #[test]
    fn dot_and_norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert_eq!(v.dot(&v), 25.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_squared(), 25.0);
        assert_eq!(v.norm_l1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn axpy_and_scale() {
        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v.axpy(2.0, &Vector::from_slice(&[10.0, 20.0]));
        assert_eq!(v.as_slice(), &[21.0, 42.0]);
        v.scale(0.5);
        assert_eq!(v.as_slice(), &[10.5, 21.0]);
        v.fill_zero();
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn operators() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn sum_adds_every_entry() {
        assert_eq!(Vector::from_slice(&[1.0, 5.0, 5.0, 2.0]).sum(), 13.0);
    }

    #[test]
    fn random_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = Vector::random_normal(20_000, 1.0, 2.0, &mut rng);
        let mean = v.sum() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!((mean - 1.0).abs() < 0.06, "mean={mean}");
        assert!((var - 4.0).abs() < 0.25, "var={var}");
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn collect_and_iterate() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let doubled: Vec<f64> = (&v).into_iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn norm_inf_propagates_nan() {
        let mut v = Vector::from_slice(&[1.0, -3.0, 2.0]);
        assert_eq!(v.norm_inf(), 3.0);
        v[1] = f64::NAN;
        assert!(v.norm_inf().is_nan());
        let all_nan = Vector::filled(4, f64::NAN);
        assert!(all_nan.norm_inf().is_nan());
        assert_eq!(Vector::zeros(0).norm_inf(), 0.0);
    }

    #[test]
    fn operators_match_kernel_paths_bitwise() {
        let a = Vector::from_fn(9, |i| 0.1 * i as f64 - 0.3);
        let b = Vector::from_fn(9, |i| 1.0 / (i + 1) as f64);
        for i in 0..a.len() {
            assert_eq!((&a + &b)[i].to_bits(), (a[i] + b[i]).to_bits());
            assert_eq!((&a - &b)[i].to_bits(), (a[i] - b[i]).to_bits());
            assert_eq!((&a * 0.7)[i].to_bits(), (a[i] * 0.7).to_bits());
            assert_eq!((-&a)[i].to_bits(), (-a[i]).to_bits());
        }
    }
}
