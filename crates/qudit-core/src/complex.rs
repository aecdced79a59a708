//! A minimal, dependency-free complex number type used throughout the
//! workspace.
//!
//! The simulator only needs double-precision complex arithmetic (addition,
//! multiplication, conjugation, magnitude, and the complex exponential), so we
//! implement it here instead of pulling in an external crate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i·im`.
///
/// # Examples
///
/// ```
/// use qudit_core::Complex;
///
/// let i = Complex::I;
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
///
/// The layout is guaranteed: `re` then `im`, two f64s with no padding, so
/// a `[Complex]` buffer can be read as interleaved `(re, im)` f64 pairs
/// (the simulator's SIMD kernels do).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

const _: () = {
    assert!(std::mem::size_of::<Complex>() == 16);
    assert!(std::mem::align_of::<Complex>() == 8);
    assert!(std::mem::offset_of!(Complex, re) == 0);
    assert!(std::mem::offset_of!(Complex, im) == 8);
};

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Returns the complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Returns the squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude `sqrt(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Returns the argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Constructs a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// Returns `e^{iθ}`, a unit-magnitude phase.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Returns the complex exponential `e^{self}`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Returns the principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs().sqrt();
        let theta = self.arg() / 2.0;
        Complex::from_polar(r, theta)
    }

    /// Returns the principal value of `self` raised to a real power.
    pub fn powf(self, exponent: f64) -> Self {
        if self == Complex::ZERO {
            return Complex::ZERO;
        }
        let r = self.abs().powf(exponent);
        let theta = self.arg() * exponent;
        Complex::from_polar(r, theta)
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self` is exactly zero.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "attempted to invert zero");
        Complex::new(self.re / d, -self.im / d)
    }

    /// Returns `true` if both parts are within `tol` of `other`'s.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, c| acc + c)
    }
}

impl<'a> Sum<&'a Complex> for Complex {
    fn sum<I: Iterator<Item = &'a Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, c| acc + *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn addition_and_subtraction() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert!(((a * b) - Complex::new(5.0, 5.0)).abs() < TOL);
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let a = Complex::new(0.3, -0.7);
        assert_eq!(a.conj(), Complex::new(0.3, 0.7));
        assert!((a * a.conj()).im.abs() < TOL);
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < TOL);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(2.0, -3.0);
        let b = Complex::new(0.5, 1.5);
        let c = a * b;
        assert!((c / b - a).abs() < TOL);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < TOL);
        assert!((z.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::FRAC_PI_8;
            assert!((Complex::cis(theta).abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exp_of_imaginary_pi_is_minus_one() {
        let z = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!(z.approx_eq(Complex::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex::new(-3.0, 4.0);
        let r = z.sqrt();
        assert!((r * r).approx_eq(z, 1e-10));
    }

    #[test]
    fn powf_matches_repeated_multiplication() {
        let z = Complex::new(0.6, 0.8); // unit magnitude
        let cubed = z * z * z;
        assert!(z.powf(3.0).approx_eq(cubed, 1e-10));
    }

    #[test]
    fn recip_multiplies_to_one() {
        let z = Complex::new(1.25, -0.5);
        assert!((z * z.recip()).approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn sum_over_iterator() {
        let zs = [Complex::new(1.0, 1.0); 4];
        let total: Complex = zs.iter().sum();
        assert_eq!(total, Complex::new(4.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
    }
}
