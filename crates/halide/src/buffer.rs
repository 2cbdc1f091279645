//! Dense multi-dimensional buffers used as realization targets and image
//! parameters.

use crate::types::{ScalarType, Value};
use serde::{Deserialize, Serialize};

/// Decode a scalar of type `ty` from little-endian `bytes`.
///
/// # Panics
/// Panics if `bytes` is shorter than `ty.bytes()`.
pub fn read_scalar(ty: ScalarType, bytes: &[u8]) -> Value {
    match ty {
        ScalarType::UInt8 => Value::Int(bytes[0] as i64),
        ScalarType::UInt16 => Value::Int(u16::from_le_bytes([bytes[0], bytes[1]]) as i64),
        ScalarType::UInt32 => {
            Value::Int(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as i64)
        }
        ScalarType::UInt64 => {
            Value::Int(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as i64)
        }
        ScalarType::Int32 => {
            Value::Int(i32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as i64)
        }
        ScalarType::Float32 => {
            Value::Float(f32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as f64)
        }
        ScalarType::Float64 => {
            Value::Float(f64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")))
        }
    }
}

/// `v`, with any NaN replaced by the one quiet NaN every float store writes.
///
/// When both operands of a float add or multiply are NaN, which payload (and
/// sign) the result carries depends on operand order, and LLVM may commute
/// those operands differently in each execution tier. Canonical stores keep
/// the bytes of every tier identical.
#[inline]
pub(crate) fn canonical_f32(v: f32) -> f32 {
    if v.is_nan() {
        f32::from_bits(0x7FC0_0000)
    } else {
        v
    }
}

/// The `f64` twin of [`canonical_f32`].
#[inline]
pub(crate) fn canonical_f64(v: f64) -> f64 {
    if v.is_nan() {
        f64::from_bits(0x7FF8_0000_0000_0000)
    } else {
        v
    }
}

/// Encode `value` as a scalar of type `ty` into little-endian `bytes`,
/// casting with C semantics first. Float NaNs are stored as one canonical
/// quiet NaN, like every other float store of the engine.
///
/// # Panics
/// Panics if `bytes` is shorter than `ty.bytes()`.
pub fn write_scalar(ty: ScalarType, value: Value, bytes: &mut [u8]) {
    let v = value.cast(ty);
    match ty {
        ScalarType::UInt8 => bytes[0] = v.as_i64() as u8,
        ScalarType::UInt16 => bytes[..2].copy_from_slice(&(v.as_i64() as u16).to_le_bytes()),
        ScalarType::UInt32 => bytes[..4].copy_from_slice(&(v.as_i64() as u32).to_le_bytes()),
        ScalarType::UInt64 => bytes[..8].copy_from_slice(&(v.as_i64() as u64).to_le_bytes()),
        ScalarType::Int32 => bytes[..4].copy_from_slice(&(v.as_i64() as i32).to_le_bytes()),
        ScalarType::Float32 => {
            bytes[..4].copy_from_slice(&canonical_f32(v.as_f64() as f32).to_le_bytes())
        }
        ScalarType::Float64 => bytes[..8].copy_from_slice(&canonical_f64(v.as_f64()).to_le_bytes()),
    }
}

/// A dense, row-major-by-innermost-dimension buffer.
///
/// Dimension 0 is the innermost (contiguous) dimension, matching Halide's
/// convention where `f(x, y)` has `x` varying fastest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Buffer {
    ty: ScalarType,
    extents: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<u8>,
}

impl Buffer {
    /// Create a zero-filled buffer with the given element type and extents.
    ///
    /// # Panics
    /// Panics if `extents` is empty.
    pub fn new(ty: ScalarType, extents: &[usize]) -> Buffer {
        assert!(
            !extents.is_empty(),
            "buffers must have at least one dimension"
        );
        let mut strides = Vec::with_capacity(extents.len());
        let mut stride = 1;
        for &e in extents {
            strides.push(stride);
            stride *= e;
        }
        let total = stride;
        Buffer {
            ty,
            extents: extents.to_vec(),
            strides,
            data: vec![0; total * ty.bytes()],
        }
    }

    /// Element type of the buffer.
    pub fn scalar_type(&self) -> ScalarType {
        self.ty
    }

    /// Extent of each dimension.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.extents.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// Returns `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw backing bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    fn offset(&self, indices: &[i64]) -> usize {
        debug_assert_eq!(indices.len(), self.extents.len(), "index arity mismatch");
        let mut off = 0usize;
        for (d, &i) in indices.iter().enumerate() {
            let i = i.clamp(0, self.extents[d] as i64 - 1) as usize;
            off += i * self.strides[d];
        }
        off
    }

    /// Read the element at `indices` (out-of-range indices are clamped, which
    /// mirrors Halide's boundary-condition-free debug behaviour and keeps
    /// lifted kernels total).
    pub fn get(&self, indices: &[i64]) -> Value {
        let off = self.offset(indices) * self.ty.bytes();
        read_scalar(self.ty, &self.data[off..off + self.ty.bytes()])
    }

    /// Write the element at `indices`, casting `value` to the buffer type.
    pub fn set(&mut self, indices: &[i64], value: Value) {
        let off = self.offset(indices) * self.ty.bytes();
        let ty = self.ty;
        write_scalar(ty, value, &mut self.data[off..off + ty.bytes()]);
    }

    /// Read the element at linear index `i` (memory order).
    pub fn get_linear(&self, i: usize) -> Value {
        let off = i * self.ty.bytes();
        read_scalar(self.ty, &self.data[off..off + self.ty.bytes()])
    }

    /// Strides (in elements) of each dimension.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Mutable access to the raw backing bytes (used by the parallel realizer
    /// to split the output into per-thread chunks).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Fill the buffer from a slice of `u8` values (only for `UInt8` buffers).
    ///
    /// # Panics
    /// Panics if the buffer is not `UInt8` or the length does not match.
    pub fn fill_from_u8(&mut self, src: &[u8]) {
        assert_eq!(
            self.ty,
            ScalarType::UInt8,
            "fill_from_u8 requires a UInt8 buffer"
        );
        assert_eq!(src.len(), self.len(), "source length mismatch");
        self.data.copy_from_slice(src);
    }

    /// View the buffer as a slice of `u8` values (only for `UInt8` buffers).
    ///
    /// # Panics
    /// Panics if the buffer is not `UInt8`.
    pub fn as_u8_slice(&self) -> &[u8] {
        assert_eq!(
            self.ty,
            ScalarType::UInt8,
            "as_u8_slice requires a UInt8 buffer"
        );
        &self.data
    }

    /// Iterate over all coordinate tuples of the buffer in memory order.
    pub fn coords(&self) -> CoordIter {
        CoordIter {
            extents: self.extents.clone(),
            current: vec![0; self.extents.len()],
            done: self.is_empty(),
        }
    }
}

/// Iterator over the coordinates of a buffer, innermost dimension fastest.
#[derive(Debug, Clone)]
pub struct CoordIter {
    extents: Vec<usize>,
    current: Vec<i64>,
    done: bool,
}

impl Iterator for CoordIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.done {
            return None;
        }
        let result = self.current.clone();
        for d in 0..self.extents.len() {
            self.current[d] += 1;
            if (self.current[d] as usize) < self.extents[d] {
                return Some(result);
            }
            self.current[d] = 0;
        }
        self.done = true;
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        for ty in [
            ScalarType::UInt8,
            ScalarType::UInt16,
            ScalarType::UInt32,
            ScalarType::UInt64,
            ScalarType::Int32,
            ScalarType::Float32,
            ScalarType::Float64,
        ] {
            let mut b = Buffer::new(ty, &[4, 3]);
            assert_eq!(b.dims(), 2);
            assert_eq!(b.len(), 12);
            let v = if ty.is_float() {
                Value::Float(2.5)
            } else {
                Value::Int(200)
            };
            b.set(&[2, 1], v);
            assert_eq!(b.get(&[2, 1]), v.cast(ty));
            assert_eq!(
                b.get(&[0, 0]),
                if ty.is_float() {
                    Value::Float(0.0)
                } else {
                    Value::Int(0)
                }
            );
        }
    }

    #[test]
    fn uint8_wrapping_on_set() {
        let mut b = Buffer::new(ScalarType::UInt8, &[2]);
        b.set(&[0], Value::Int(300));
        assert_eq!(b.get(&[0]), Value::Int(44));
        b.set(&[1], Value::Int(-1));
        assert_eq!(b.get(&[1]), Value::Int(255));
    }

    #[test]
    fn out_of_range_indices_clamp() {
        let mut b = Buffer::new(ScalarType::UInt8, &[4, 4]);
        b.set(&[3, 3], Value::Int(9));
        assert_eq!(b.get(&[10, 10]), Value::Int(9));
        assert_eq!(b.get(&[-5, 0]), b.get(&[0, 0]));
    }

    #[test]
    fn fill_and_view_u8() {
        let mut b = Buffer::new(ScalarType::UInt8, &[2, 2]);
        b.fill_from_u8(&[1, 2, 3, 4]);
        assert_eq!(b.as_u8_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.get(&[1, 0]), Value::Int(2));
        assert_eq!(b.get(&[0, 1]), Value::Int(3));
    }

    #[test]
    fn coord_iterator_order_and_count() {
        let b = Buffer::new(ScalarType::UInt8, &[2, 3]);
        let coords: Vec<_> = b.coords().collect();
        assert_eq!(coords.len(), 6);
        assert_eq!(coords[0], vec![0, 0]);
        assert_eq!(coords[1], vec![1, 0]);
        assert_eq!(coords[2], vec![0, 1]);
        assert_eq!(coords[5], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimensional_buffers_rejected() {
        Buffer::new(ScalarType::UInt8, &[]);
    }
}
