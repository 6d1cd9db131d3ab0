//! # brook-numfmt — numerical format transformations for RGBA8-only GPUs
//!
//! Low-end OpenGL ES 2.0 GPUs (the paper's target class, e.g. VideoCore
//! IV and Mali-4xx) have no float textures: the only storage format is
//! RGBA8. Following the transformations of Trompouki & Kosmidis, DATE'16
//! (reference \[16\] of the Brook Auto paper, incorporated into the
//! backend in §5.4), every 32-bit float stream element is bit-packed into
//! the four 8-bit channels of one texel:
//!
//! * the **CPU side** ([`encode_f32`]/[`decode_f32`] and the bulk
//!   [`floats_to_texels`]/[`texels_to_floats`]) converts between `f32`
//!   buffers and RGBA8 texel arrays when setting up textures and reading
//!   results back — "portable performance-oriented C code" in the paper;
//! * the **GPU side** ([`GLSL_DECODE`]/[`GLSL_ENCODE`]) is GLSL ES 1.00
//!   source injected into every generated kernel, reconstructing the
//!   float from a sampled `vec4` and encoding the kernel result into
//!   `gl_FragColor` — "optimized with GLSL vector operations" in the
//!   paper.
//!
//! The encoding is IEEE-754 binary32 layout in little-endian channel
//! order (x = mantissa low byte, w = sign + exponent high bits), with
//! three deviations required by the GPU path: denormals flush to zero,
//! infinities saturate to the largest finite value of their sign, and
//! NaN, which no shader stores portably, becomes 0. [`canonicalize`]
//! applies these rules on the CPU. One
//! difference remains: [`canonicalize`] keeps the sign of a zero (and
//! of a flushed denormal), while [`GLSL_ENCODE`] writes every zero as
//! +0.0.
//!
//! ```
//! use brook_numfmt::{decode_f32, encode_f32};
//! let bytes = encode_f32(-123.456);
//! assert_eq!(decode_f32(bytes), -123.456);
//! ```

/// Largest-magnitude value the format represents; infinities saturate
/// here (GPU shaders cannot produce or store NaN or infinity portably;
/// NaN becomes 0).
pub const MAX_MAGNITUDE: f32 = f32::MAX;

/// Maps a float onto the representable set: denormals flush to zero,
/// NaN becomes zero, infinities saturate to `±`[`MAX_MAGNITUDE`].
pub fn canonicalize(v: f32) -> f32 {
    if v.is_nan() {
        return 0.0;
    }
    if v.is_infinite() {
        return MAX_MAGNITUDE.copysign(v);
    }
    if v != 0.0 && v.abs() < f32::MIN_POSITIVE {
        return 0.0f32.copysign(v);
    }
    v
}

/// Encodes a float into RGBA8 bytes (little-endian IEEE-754 after
/// [`canonicalize`]).
pub fn encode_f32(v: f32) -> [u8; 4] {
    canonicalize(v).to_le_bytes()
}

/// Decodes RGBA8 bytes produced by [`encode_f32`] or by the GPU-side
/// encoder back into a float.
pub fn decode_f32(bytes: [u8; 4]) -> f32 {
    canonicalize(f32::from_le_bytes(bytes))
}

/// Converts a byte to the channel value OpenGL delivers to a shader
/// (`n / 255`).
pub fn byte_to_channel(b: u8) -> f32 {
    b as f32 / 255.0
}

/// Converts a shader channel value back to the byte it came from.
pub fn channel_to_byte(c: f32) -> u8 {
    (c.clamp(0.0, 1.0) * 255.0).round() as u8
}

/// Bulk conversion: float buffer -> RGBA texel array ready for
/// `glTexImage2D` (one float per texel).
pub fn floats_to_texels(values: &[f32]) -> Vec<[f32; 4]> {
    values
        .iter()
        .map(|v| {
            let b = encode_f32(*v);
            [
                byte_to_channel(b[0]),
                byte_to_channel(b[1]),
                byte_to_channel(b[2]),
                byte_to_channel(b[3]),
            ]
        })
        .collect()
}

/// Bulk conversion: RGBA texels read via `glReadPixels` -> float buffer.
pub fn texels_to_floats(texels: &[[f32; 4]]) -> Vec<f32> {
    texels
        .iter()
        .map(|t| {
            decode_f32([
                channel_to_byte(t[0]),
                channel_to_byte(t[1]),
                channel_to_byte(t[2]),
                channel_to_byte(t[3]),
            ])
        })
        .collect()
}

/// GLSL ES 1.00 source of `ba_decode(vec4) -> float`: reconstructs an
/// IEEE-754 binary32 from the four sampled channels.
///
/// Exactness argument: every intermediate integer stays below `2^24`,
/// which `highp float` represents exactly; power-of-two scalings via
/// `exp2` are exact; hence the reconstruction is bit-exact for every
/// canonical (non-denormal, finite) input.
pub const GLSL_DECODE: &str = r#"
float ba_decode(vec4 rgba) {
    vec4 b = floor(rgba * 255.0 + 0.5);
    float sgn = 1.0 - 2.0 * step(128.0, b.w);
    float expo = mod(b.w, 128.0) * 2.0 + step(128.0, b.z);
    float mant = mod(b.z, 128.0) * 65536.0 + b.y * 256.0 + b.x;
    if (expo == 0.0) { return 0.0; }
    return sgn * (1.0 + mant * 0.00000011920928955078125) * exp2(expo - 127.0);
}
"#;

/// GLSL ES 1.00 source of `ba_encode(float) -> vec4`: packs a float into
/// four channels for `gl_FragColor`.
///
/// Includes the exponent-correction step that repairs `log2` rounding at
/// power-of-two boundaries, so the encoding is bit-exact for canonical
/// values.
pub const GLSL_ENCODE: &str = r#"
vec4 ba_encode(float v) {
    if (v == 0.0) { return vec4(0.0); }
    float sgn = v < 0.0 ? 128.0 : 0.0;
    float av = abs(v);
    float expo = floor(log2(av));
    if (av * exp2(-expo) >= 2.0) { expo = expo + 1.0; }
    if (av * exp2(-expo) < 1.0) { expo = expo - 1.0; }
    float be = expo + 127.0;
    if (be >= 255.0) { be = 254.0; av = exp2(128.0) - exp2(104.0); expo = 127.0; }
    if (be <= 0.0) { return vec4(0.0); }
    float mant = av * exp2(-expo) - 1.0;
    float m = floor(mant * 8388608.0 + 0.5);
    if (m >= 8388608.0) { m = 8388607.0; }
    float b0 = mod(m, 256.0);
    float b1 = mod(floor(m / 256.0), 256.0);
    float b2 = floor(m / 65536.0) + mod(be, 2.0) * 128.0;
    float b3 = sgn + floor(be / 2.0);
    return vec4(b0, b1, b2, b3) / 255.0;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple_values() {
        for v in [
            0.0f32,
            1.0,
            -1.0,
            0.5,
            2.0,
            123.456,
            -9.875e10,
            3.0e-30,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            assert_eq!(decode_f32(encode_f32(v)), v, "roundtrip failed for {v}");
        }
    }

    #[test]
    fn negative_zero_keeps_sign_bit() {
        let b = encode_f32(-0.0);
        assert_eq!(b[3] & 0x80, 0x80);
        assert_eq!(decode_f32(b), 0.0);
    }

    #[test]
    fn canonicalize_rules() {
        assert_eq!(canonicalize(f32::NAN), 0.0);
        assert_eq!(canonicalize(f32::INFINITY), f32::MAX);
        assert_eq!(canonicalize(f32::NEG_INFINITY), f32::MIN);
        assert_eq!(canonicalize(1.0e-45), 0.0); // denormal flushes
        assert_eq!(canonicalize(1.5), 1.5);
    }

    #[test]
    fn channel_byte_roundtrip() {
        for b in 0..=255u8 {
            assert_eq!(channel_to_byte(byte_to_channel(b)), b);
        }
    }

    #[test]
    fn bulk_roundtrip() {
        let values = vec![0.0, 1.0, -2.5, 1e10, -1e-10, 255.0, 3.15159];
        let texels = floats_to_texels(&values);
        assert_eq!(texels_to_floats(&texels), values);
    }

    #[test]
    fn glsl_snippets_are_nonempty_and_named() {
        assert!(GLSL_DECODE.contains("float ba_decode(vec4"));
        assert!(GLSL_ENCODE.contains("vec4 ba_encode(float"));
    }

    proptest! {
        #[test]
        fn roundtrip_is_identity_for_canonical(v in proptest::num::f32::NORMAL) {
            prop_assert_eq!(decode_f32(encode_f32(v)), canonicalize(v));
        }

        #[test]
        fn roundtrip_through_channels(v in -1.0e30f32..1.0e30f32) {
            let canonical = canonicalize(v);
            let texels = floats_to_texels(&[canonical]);
            let back = texels_to_floats(&texels);
            prop_assert_eq!(back[0], canonical);
        }

        #[test]
        fn canonicalize_is_idempotent(bits in any::<u32>()) {
            let v = f32::from_bits(bits);
            let c = canonicalize(v);
            prop_assert_eq!(canonicalize(c).to_bits(), c.to_bits());
        }
    }
}
