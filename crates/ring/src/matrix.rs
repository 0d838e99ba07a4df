//! Module-lattice plumbing: vectors and matrices of polynomials.
//!
//! Saber is a *module* scheme: the public matrix `A` is `ℓ×ℓ` polynomials
//! mod `q`, secrets are length-`ℓ` vectors of small polynomials, and both
//! key generation and encapsulation reduce to matrix–vector products and
//! inner products whose scalar operation is exactly the asymmetric
//! multiplication served by a [`PolyMultiplier`] backend.

use std::fmt;
use std::ops::Index;

use crate::mul::PolyMultiplier;
use crate::poly::{Poly, PolyP, PolyQ};
use crate::secret::SecretPoly;

/// A vector of polynomials mod `2^QBITS`.
///
/// # Examples
///
/// ```
/// use saber_ring::{PolyVec, PolyQ};
///
/// let v = PolyVec::<13>::from_polys(vec![PolyQ::zero(); 3]);
/// assert_eq!(v.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PolyVec<const QBITS: u32> {
    polys: Vec<Poly<QBITS>>,
}

impl<const QBITS: u32> PolyVec<QBITS> {
    /// An all-zero vector of `len` polynomials.
    #[must_use]
    pub fn zero(len: usize) -> Self {
        Self {
            polys: vec![Poly::zero(); len],
        }
    }

    /// Wraps existing polynomials.
    #[must_use]
    pub fn from_polys(polys: Vec<Poly<QBITS>>) -> Self {
        Self { polys }
    }

    /// Number of polynomial entries (the module rank `ℓ`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.polys.len()
    }

    /// Whether the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.polys.is_empty()
    }

    /// Iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, Poly<QBITS>> {
        self.polys.iter()
    }

    /// Entry-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "vector length mismatch");
        Self {
            polys: self
                .polys
                .iter()
                .zip(other.polys.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Adds `constant` to every coefficient of every entry (the Saber `h`
    /// vector).
    #[must_use]
    pub fn add_constant(&self, constant: u16) -> Self {
        Self {
            polys: self
                .polys
                .iter()
                .map(|p| p.add_constant(constant))
                .collect(),
        }
    }
}

impl PolyVec<10> {
    /// Inner product with a secret vector, computed mod `p` by running the
    /// 13-bit backend's [`PolyMultiplier::inner_product`] on zero-extended
    /// operands and masking down.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn inner_product_mod_p<M: PolyMultiplier + ?Sized>(
        &self,
        secret: &SecretVec,
        backend: &mut M,
    ) -> PolyP {
        assert_eq!(self.len(), secret.len(), "vector length mismatch");
        let wides: Vec<PolyQ> = self.polys.iter().map(|b| b.embed_to::<13>()).collect();
        let pairs: Vec<(&PolyQ, &SecretPoly)> = wides.iter().zip(secret.iter()).collect();
        backend.inner_product(&pairs).reduce_to::<10>()
    }
}

impl<const QBITS: u32> Index<usize> for PolyVec<QBITS> {
    type Output = Poly<QBITS>;

    fn index(&self, i: usize) -> &Poly<QBITS> {
        &self.polys[i]
    }
}

impl<const QBITS: u32> FromIterator<Poly<QBITS>> for PolyVec<QBITS> {
    fn from_iter<I: IntoIterator<Item = Poly<QBITS>>>(iter: I) -> Self {
        Self {
            polys: iter.into_iter().collect(),
        }
    }
}

impl<const QBITS: u32> Extend<Poly<QBITS>> for PolyVec<QBITS> {
    fn extend<I: IntoIterator<Item = Poly<QBITS>>>(&mut self, iter: I) {
        self.polys.extend(iter);
    }
}

impl<'a, const QBITS: u32> IntoIterator for &'a PolyVec<QBITS> {
    type Item = &'a Poly<QBITS>;
    type IntoIter = std::slice::Iter<'a, Poly<QBITS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.polys.iter()
    }
}

impl<const QBITS: u32> IntoIterator for PolyVec<QBITS> {
    type Item = Poly<QBITS>;
    type IntoIter = std::vec::IntoIter<Poly<QBITS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.polys.into_iter()
    }
}

impl<const QBITS: u32> fmt::Debug for PolyVec<QBITS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolyVec<{}>(len = {})", QBITS, self.polys.len())
    }
}

/// A vector of small secret polynomials.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretVec {
    polys: Vec<SecretPoly>,
}

impl SecretVec {
    /// An all-zero secret vector.
    #[must_use]
    pub fn zero(len: usize) -> Self {
        Self {
            polys: vec![SecretPoly::zero(); len],
        }
    }

    /// Wraps existing secret polynomials.
    #[must_use]
    pub fn from_polys(polys: Vec<SecretPoly>) -> Self {
        Self { polys }
    }

    /// Zeroizes every entry in place (see [`SecretPoly::zeroize`]).
    pub fn zeroize(&mut self) {
        for p in &mut self.polys {
            p.zeroize();
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.polys.len()
    }

    /// Whether the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.polys.is_empty()
    }

    /// Iterator over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, SecretPoly> {
        self.polys.iter()
    }
}

impl Index<usize> for SecretVec {
    type Output = SecretPoly;

    fn index(&self, i: usize) -> &SecretPoly {
        &self.polys[i]
    }
}

impl FromIterator<SecretPoly> for SecretVec {
    fn from_iter<I: IntoIterator<Item = SecretPoly>>(iter: I) -> Self {
        Self {
            polys: iter.into_iter().collect(),
        }
    }
}

impl Extend<SecretPoly> for SecretVec {
    fn extend<I: IntoIterator<Item = SecretPoly>>(&mut self, iter: I) {
        self.polys.extend(iter);
    }
}

impl<'a> IntoIterator for &'a SecretVec {
    type Item = &'a SecretPoly;
    type IntoIter = std::slice::Iter<'a, SecretPoly>;

    fn into_iter(self) -> Self::IntoIter {
        self.polys.iter()
    }
}

impl fmt::Debug for SecretVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretVec(len = {})", self.polys.len())
    }
}

/// A square matrix of mod-`q` polynomials (the Saber public matrix `A`).
#[derive(Clone, PartialEq, Eq)]
pub struct PolyMatrix {
    rank: usize,
    /// Row-major entries, `entries[row * rank + col]`.
    entries: Vec<PolyQ>,
}

impl PolyMatrix {
    /// Builds a matrix from row-major entries.
    ///
    /// # Panics
    ///
    /// Panics unless `entries.len() == rank²`.
    #[must_use]
    pub fn from_entries(rank: usize, entries: Vec<PolyQ>) -> Self {
        assert_eq!(entries.len(), rank * rank, "need rank² entries");
        Self { rank, entries }
    }

    /// The module rank `ℓ`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn entry(&self, row: usize, col: usize) -> &PolyQ {
        assert!(
            row < self.rank && col < self.rank,
            "matrix index out of range"
        );
        &self.entries[row * self.rank + col]
    }

    /// Matrix–vector product `A·s` using the given multiplier backend: one
    /// [`PolyMultiplier::inner_product`] call per row.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != rank`.
    #[must_use]
    pub fn mul_vec<M: PolyMultiplier + ?Sized>(
        &self,
        s: &SecretVec,
        backend: &mut M,
    ) -> PolyVec<13> {
        self.mul_vec_inner(s, backend, false)
    }

    /// Transposed product `Aᵀ·s` (used in key generation).
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != rank`.
    #[must_use]
    pub fn mul_vec_transposed<M: PolyMultiplier + ?Sized>(
        &self,
        s: &SecretVec,
        backend: &mut M,
    ) -> PolyVec<13> {
        self.mul_vec_inner(s, backend, true)
    }

    fn mul_vec_inner<M: PolyMultiplier + ?Sized>(
        &self,
        s: &SecretVec,
        backend: &mut M,
        transpose: bool,
    ) -> PolyVec<13> {
        assert_eq!(s.len(), self.rank, "vector length must equal matrix rank");
        // Each output row is one inner product, so a backend that folds
        // once per inner product folds once per row.
        (0..self.rank)
            .map(|row| {
                let pairs: Vec<(&PolyQ, &SecretPoly)> = (0..self.rank)
                    .map(|col| {
                        let a = if transpose {
                            self.entry(col, row)
                        } else {
                            self.entry(row, col)
                        };
                        (a, &s[col])
                    })
                    .collect();
                backend.inner_product(&pairs)
            })
            .collect()
    }
}

impl fmt::Debug for PolyMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolyMatrix({0}×{0})", self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::SchoolbookMultiplier;

    fn matrix(rank: usize, seed: u16) -> PolyMatrix {
        let entries = (0..rank * rank)
            .map(|e| PolyQ::from_fn(|i| (i as u16).wrapping_mul(seed).wrapping_add(e as u16)))
            .collect();
        PolyMatrix::from_entries(rank, entries)
    }

    fn secret_vec(rank: usize, seed: i8) -> SecretVec {
        SecretVec::from_polys(
            (0..rank)
                .map(|e| SecretPoly::from_fn(|i| ((((i + e) as i16 * seed as i16) % 9) - 4) as i8))
                .collect(),
        )
    }

    #[test]
    fn transpose_differs_for_asymmetric_matrix() {
        let a = matrix(2, 31);
        let s = secret_vec(2, 3);
        let mut sb = SchoolbookMultiplier;
        assert_ne!(a.mul_vec(&s, &mut sb), a.mul_vec_transposed(&s, &mut sb));
    }

    #[test]
    fn matvec_distributes_entrywise() {
        // (A·s)[row] = Σ_col A[row][col]·s[col].
        let a = matrix(3, 77);
        let s = secret_vec(3, 2);
        let mut sb = SchoolbookMultiplier;
        let product = a.mul_vec(&s, &mut sb);
        for row in 0..3 {
            let mut acc = PolyQ::zero();
            for col in 0..3 {
                acc += &crate::schoolbook::mul_asym(a.entry(row, col), &s[col]);
            }
            assert_eq!(product[row], acc);
        }
    }

    #[test]
    fn inner_product_mod_p_matches_wide_computation() {
        let b = PolyVec::<10>::from_polys(vec![
            crate::poly::PolyP::from_fn(|i| (i as u16) & 0x3ff),
            crate::poly::PolyP::from_fn(|i| (1023 - i as u16) & 0x3ff),
        ]);
        let s = secret_vec(2, 5);
        let mut sb = SchoolbookMultiplier;
        let got = b.inner_product_mod_p(&s, &mut sb);
        // Recompute with full-width integers.
        let mut acc = PolyQ::zero();
        for k in 0..2 {
            let wide: PolyQ = b[k].embed_to::<13>();
            acc += &crate::schoolbook::mul_asym(&wide, &s[k]);
        }
        assert_eq!(got, acc.reduce_to::<10>());
    }

    #[test]
    fn vector_add_and_constant() {
        let v = PolyVec::<13>::from_polys(vec![PolyQ::from_fn(|i| i as u16); 2]);
        let sum = v.add(&v).add_constant(4);
        assert_eq!(sum[0].coeff(1), 6);
    }

    #[test]
    fn collection_traits() {
        // FromIterator / Extend / IntoIterator (C-COLLECT).
        let mut v: PolyVec<13> = (0..2).map(|k| PolyQ::from_fn(|i| (i + k) as u16)).collect();
        v.extend(std::iter::once(PolyQ::zero()));
        assert_eq!(v.len(), 3);
        let borrowed: Vec<&PolyQ> = (&v).into_iter().collect();
        assert_eq!(borrowed.len(), 3);
        let owned: Vec<PolyQ> = v.into_iter().collect();
        assert_eq!(owned.len(), 3);

        let s: SecretVec = (0..2).map(|_| SecretPoly::zero()).collect();
        assert_eq!((&s).into_iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "rank² entries")]
    fn bad_matrix_shape_panics() {
        let _ = PolyMatrix::from_entries(2, vec![PolyQ::zero(); 3]);
    }

    #[test]
    #[should_panic(expected = "length must equal matrix rank")]
    fn bad_vector_length_panics() {
        let a = matrix(2, 1);
        let s = secret_vec(3, 1);
        let _ = a.mul_vec(&s, &mut SchoolbookMultiplier);
    }
}
