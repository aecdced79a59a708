//! Dense state vectors over registers of `d`-level qudits.
//!
//! A register of `n` qudits of dimension `d` is represented by `d^n` complex
//! amplitudes. Basis states are indexed big-endian: qudit 0 is the most
//! significant digit, matching the ordering used by the controlled-gate
//! matrix builders and by Cirq (which the paper's simulator extends).

use crate::complex::Complex;
use crate::error::{CoreError, CoreResult};

/// A dense state vector for `num_qudits` qudits, each of dimension `dim`.
///
/// # Examples
///
/// ```
/// use qudit_core::StateVector;
///
/// // |102⟩ for three qutrits.
/// let psi = StateVector::from_basis_state(3, &[1, 0, 2]).unwrap();
/// assert_eq!(psi.num_qudits(), 3);
/// assert!((psi.probability(&[1, 0, 2]).unwrap() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    dim: usize,
    num_qudits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zeros basis state `|00…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDimension`] if `dim < 2`.
    pub fn zero_state(dim: usize, num_qudits: usize) -> CoreResult<Self> {
        if dim < 2 {
            return Err(CoreError::InvalidDimension { dimension: dim });
        }
        let len = dim.pow(num_qudits as u32);
        let mut amps = vec![Complex::ZERO; len];
        amps[0] = Complex::ONE;
        Ok(StateVector {
            dim,
            num_qudits,
            amps,
        })
    }

    /// Creates the computational basis state given by `digits` (one entry per
    /// qudit, most significant first).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDimension`] if `dim < 2`, or
    /// [`CoreError::InvalidLevel`] if any digit is `>= dim`.
    pub fn from_basis_state(dim: usize, digits: &[usize]) -> CoreResult<Self> {
        let mut sv = StateVector::zero_state(dim, digits.len())?;
        let idx = Self::encode_digits(dim, digits)?;
        sv.amps[0] = Complex::ZERO;
        sv.amps[idx] = Complex::ONE;
        Ok(sv)
    }

    /// Creates a state vector from raw amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `amps.len() != dim^num_qudits`,
    /// [`CoreError::InvalidDimension`] if `dim < 2`, or
    /// [`CoreError::NotNormalized`] if the amplitudes are not normalised to
    /// within `1e-6`.
    pub fn from_amplitudes(dim: usize, num_qudits: usize, amps: Vec<Complex>) -> CoreResult<Self> {
        if dim < 2 {
            return Err(CoreError::InvalidDimension { dimension: dim });
        }
        let expected = dim.pow(num_qudits as u32);
        if amps.len() != expected {
            return Err(CoreError::ShapeMismatch {
                expected,
                actual: amps.len(),
            });
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(CoreError::NotNormalized { norm: norm.sqrt() });
        }
        Ok(StateVector {
            dim,
            num_qudits,
            amps,
        })
    }

    /// Reorders the qudits: qudit `q` of `self` becomes qudit `map[q]` of
    /// the result. `map` must be a permutation of `0..num_qudits`. This is
    /// how routed execution embeds a logical state onto placed sites (and
    /// un-embeds the output through the inverse of the final mapping).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `map` is not a permutation
    /// of the qudit indices.
    pub fn permute_qudits(&self, map: &[usize]) -> CoreResult<StateVector> {
        let n = self.num_qudits;
        let mut seen = vec![false; n];
        if map.len() != n
            || !map
                .iter()
                .all(|&m| m < n && !std::mem::replace(&mut seen[m], true))
        {
            return Err(CoreError::ShapeMismatch {
                expected: n,
                actual: map.len(),
            });
        }
        let mut amps = vec![Complex::ZERO; self.amps.len()];
        // Walk the source indices in order with an odometer over their
        // digits, carrying the destination index along: digit `q` of the
        // source weighs `dest_stride[q]`, the stride of position `map[q]`
        // (most significant digit first).
        let dest_stride: Vec<usize> = map
            .iter()
            .map(|&m| self.dim.pow((n - 1 - m) as u32))
            .collect();
        let mut digits = vec![0usize; n];
        let mut dest = 0usize;
        for &amp in &self.amps {
            amps[dest] = amp;
            for q in (0..n).rev() {
                digits[q] += 1;
                dest += dest_stride[q];
                if digits[q] < self.dim {
                    break;
                }
                digits[q] = 0;
                dest -= self.dim * dest_stride[q];
            }
        }
        Ok(StateVector {
            dim: self.dim,
            num_qudits: n,
            amps,
        })
    }

    /// Encodes per-qudit digits into a flat basis-state index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidLevel`] if any digit is `>= dim`.
    pub fn encode_digits(dim: usize, digits: &[usize]) -> CoreResult<usize> {
        let mut idx = 0usize;
        for &d in digits {
            if d >= dim {
                return Err(CoreError::InvalidLevel {
                    level: d,
                    dimension: dim,
                });
            }
            idx = idx * dim + d;
        }
        Ok(idx)
    }

    /// Decodes a flat basis-state index into per-qudit digits
    /// (most significant first).
    pub fn decode_index(dim: usize, num_qudits: usize, mut index: usize) -> Vec<usize> {
        let mut digits = vec![0usize; num_qudits];
        for slot in digits.iter_mut().rev() {
            *slot = index % dim;
            index /= dim;
        }
        digits
    }

    /// The per-qudit dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The number of qudits in the register.
    #[inline]
    pub fn num_qudits(&self) -> usize {
        self.num_qudits
    }

    /// The number of amplitudes (`dim^num_qudits`).
    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Returns `true` if the register has no qudits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_qudits == 0
    }

    /// Immutable view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable view of the amplitudes.
    ///
    /// Callers are responsible for maintaining normalisation (or calling
    /// [`StateVector::renormalize`]).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Immutable view of the amplitudes in contiguous chunks of `chunk_len`
    /// (the final chunk may be shorter).
    ///
    /// When `chunk_len` is `dim^k` the chunks are exactly the amplitude
    /// groups spanned by the `k` least-significant qudits — the layout the
    /// simulator's contiguous gate kernels exploit.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    #[inline]
    pub fn amplitude_chunks(&self, chunk_len: usize) -> std::slice::Chunks<'_, Complex> {
        self.amps.chunks(chunk_len)
    }

    /// Mutable view of the amplitudes in contiguous chunks of `chunk_len`.
    ///
    /// The chunks are non-overlapping, so they can be handed to independent
    /// workers; see [`StateVector::amplitude_chunks`] for the layout
    /// guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    #[inline]
    pub fn amplitude_chunks_mut(&mut self, chunk_len: usize) -> std::slice::ChunksMut<'_, Complex> {
        self.amps.chunks_mut(chunk_len)
    }

    /// The amplitude of the basis state with the given digits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidLevel`] if any digit is out of range.
    pub fn amplitude(&self, digits: &[usize]) -> CoreResult<Complex> {
        let idx = Self::encode_digits(self.dim, digits)?;
        Ok(self.amps[idx])
    }

    /// The probability of measuring the basis state with the given digits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidLevel`] if any digit is out of range.
    pub fn probability(&self, digits: &[usize]) -> CoreResult<f64> {
        Ok(self.amplitude(digits)?.norm_sqr())
    }

    /// The Euclidean norm of the state vector.
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales the amplitudes to unit norm.
    ///
    /// Returns the norm prior to rescaling. A zero-norm state is left
    /// untouched and `0.0` is returned.
    pub fn renormalize(&mut self) -> f64 {
        let n = self.norm();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a = a.scale(inv);
            }
        }
        n
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different shapes.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.dim, other.dim, "dimension mismatch");
        assert_eq!(self.num_qudits, other.num_qudits, "width mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// The fidelity `|⟨self|other⟩|²` — the paper's reliability metric
    /// (squared overlap between ideal and actual output states).
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// The probability distribution over basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Returns the basis state digits with the highest probability.
    pub fn most_likely_state(&self) -> Vec<usize> {
        let (idx, _) = self
            .amps
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.norm_sqr()
                    .partial_cmp(&b.norm_sqr())
                    .expect("probabilities are not NaN")
            })
            .expect("state vector is non-empty");
        Self::decode_index(self.dim, self.num_qudits, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_has_single_amplitude() {
        let sv = StateVector::zero_state(3, 2).unwrap();
        assert_eq!(sv.len(), 9);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert!((sv.probability(&[0, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn basis_state_round_trip() {
        let sv = StateVector::from_basis_state(3, &[2, 1, 0, 2]).unwrap();
        assert_eq!(sv.most_likely_state(), vec![2, 1, 0, 2]);
    }

    #[test]
    fn encode_decode_are_inverses() {
        for idx in 0..27 {
            let digits = StateVector::decode_index(3, 3, idx);
            assert_eq!(StateVector::encode_digits(3, &digits).unwrap(), idx);
        }
    }

    #[test]
    fn encoding_is_big_endian() {
        // |1,0⟩ for qutrits should be index 3 (qudit 0 most significant).
        assert_eq!(StateVector::encode_digits(3, &[1, 0]).unwrap(), 3);
        assert_eq!(StateVector::encode_digits(3, &[0, 1]).unwrap(), 1);
    }

    #[test]
    fn rejects_invalid_dimension_and_levels() {
        assert!(StateVector::zero_state(1, 2).is_err());
        assert!(StateVector::from_basis_state(3, &[3]).is_err());
    }

    #[test]
    fn from_amplitudes_validates_norm() {
        let bad = vec![Complex::ONE; 4];
        assert!(matches!(
            StateVector::from_amplitudes(2, 2, bad),
            Err(CoreError::NotNormalized { .. })
        ));
        let good = vec![
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
            Complex::new(0.5, 0.0),
        ];
        assert!(StateVector::from_amplitudes(2, 2, good).is_ok());
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let sv = StateVector::from_basis_state(3, &[1, 2]).unwrap();
        assert!((sv.fidelity(&sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let a = StateVector::from_basis_state(3, &[0, 0]).unwrap();
        let b = StateVector::from_basis_state(3, &[2, 2]).unwrap();
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    fn renormalize_restores_unit_norm() {
        let mut sv = StateVector::zero_state(2, 2).unwrap();
        sv.amplitudes_mut()[0] = Complex::new(0.25, 0.0);
        sv.amplitudes_mut()[3] = Complex::new(0.25, 0.0);
        let prior = sv.renormalize();
        assert!(prior < 1.0);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_chunks_cover_the_buffer_disjointly() {
        let mut sv = StateVector::from_basis_state(3, &[1, 2, 0]).unwrap();
        assert_eq!(sv.amplitude_chunks(3).count(), 9);
        assert_eq!(sv.amplitude_chunks(9).count(), 3);
        let total: usize = sv.amplitude_chunks(4).map(<[Complex]>::len).sum();
        assert_eq!(total, 27);
        // Chunks of dim^k lines up with the groups of the k last qudits:
        // |12x⟩ occupies chunk index 1*3+2 = 5 of the dim^1 chunking.
        for (i, chunk) in sv.amplitude_chunks_mut(3).enumerate() {
            let sum: f64 = chunk.iter().map(|a| a.norm_sqr()).sum();
            if i == 5 {
                assert!((sum - 1.0).abs() < 1e-12);
            } else {
                assert!(sum < 1e-12);
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let sv = StateVector::from_basis_state(4, &[3, 1]).unwrap();
        let total: f64 = sv.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permute_qudits_moves_digits_to_mapped_positions() {
        // |0 1 2⟩ under map [2, 0, 1]: qudit 0 → position 2, qudit 1 → 0,
        // qudit 2 → 1, so the result is |1 2 0⟩.
        let sv = StateVector::from_basis_state(3, &[0, 1, 2]).unwrap();
        let moved = sv.permute_qudits(&[2, 0, 1]).unwrap();
        let expected = StateVector::from_basis_state(3, &[1, 2, 0]).unwrap();
        assert_eq!(moved.amplitudes(), expected.amplitudes());

        // The inverse permutation restores the original state.
        let back = moved.permute_qudits(&[1, 2, 0]).unwrap();
        assert_eq!(back.amplitudes(), sv.amplitudes());

        // The identity map is the identity.
        let same = sv.permute_qudits(&[0, 1, 2]).unwrap();
        assert_eq!(same.amplitudes(), sv.amplitudes());
    }

    /// The per-index decode `permute_qudits` replaced: the oracle for its
    /// stride walk.
    fn permute_qudits_by_decoding(sv: &StateVector, map: &[usize]) -> Vec<Complex> {
        let (dim, n) = (sv.dim(), sv.num_qudits());
        let stride: Vec<usize> = (0..n).map(|q| dim.pow((n - 1 - q) as u32)).collect();
        let mut amps = vec![Complex::ZERO; sv.len()];
        for (idx, &amp) in sv.amplitudes().iter().enumerate() {
            let digits = StateVector::decode_index(dim, n, idx);
            let new_idx: usize = digits
                .iter()
                .enumerate()
                .map(|(q, &d)| d * stride[map[q]])
                .sum();
            amps[new_idx] = amp;
        }
        amps
    }

    #[test]
    fn permute_qudits_matches_the_per_index_decode() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for dim in [2usize, 3] {
            for n in 1..=8 {
                let amps: Vec<Complex> = (0..dim.pow(n as u32))
                    .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                    .collect();
                let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
                let amps = amps.into_iter().map(|a| a.scale(1.0 / norm)).collect();
                let sv = StateVector::from_amplitudes(dim, n, amps).unwrap();
                for _ in 0..4 {
                    // Fisher–Yates over the qudit positions.
                    let mut map: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        map.swap(i, rng.gen_range(0..i + 1));
                    }
                    let moved = sv.permute_qudits(&map).unwrap();
                    assert_eq!(
                        moved.amplitudes(),
                        &permute_qudits_by_decoding(&sv, &map)[..],
                        "d = {dim}, n = {n}, map {map:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn permute_qudits_rejects_non_permutations() {
        let sv = StateVector::from_basis_state(2, &[0, 1]).unwrap();
        assert!(sv.permute_qudits(&[0]).is_err());
        assert!(sv.permute_qudits(&[0, 0]).is_err());
        assert!(sv.permute_qudits(&[0, 2]).is_err());
    }
}
