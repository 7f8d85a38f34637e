//! Colors and colormaps for terrain rendering.
//!
//! Section III of the paper: "The color ranges from red (most intense);
//! yellow (intense); green (less intense); blue (least intense)." The terrain
//! can be colored by the scalar that generated it, by a *second* scalar
//! (Figure 1(a): K-Core terrain colored by degree), or by a nominal attribute
//! such as the dominant role (Figure 9) or the plant genus (Figure 11).

/// An sRGB color.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Construct a color from channels.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Self {
        Color { r, g, b }
    }

    /// CSS hex representation, e.g. `#ff7f00`.
    pub fn hex(&self) -> String {
        String::from_utf8_lossy(&self.hex_bytes()).into_owned()
    }

    /// [`hex`](Self::hex) on the stack: what the exporters' per-element
    /// loops emit without allocating.
    pub(crate) fn hex_bytes(&self) -> [u8; 7] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [b'#'; 7];
        for (i, channel) in [self.r, self.g, self.b].into_iter().enumerate() {
            out[1 + 2 * i] = DIGITS[usize::from(channel >> 4)];
            out[2 + 2 * i] = DIGITS[usize::from(channel & 0xf)];
        }
        out
    }

    /// Linear interpolation between two colors.
    pub fn lerp(a: Color, b: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| -> u8 { (x as f64 + (y as f64 - x as f64) * t).round() as u8 };
        Color { r: mix(a.r, b.r), g: mix(a.g, b.g), b: mix(a.b, b.b) }
    }

    /// A slightly darker shade (used for wall faces so they read as 3D).
    pub fn darkened(&self, factor: f64) -> Color {
        let factor = factor.clamp(0.0, 1.0);
        Color {
            r: (self.r as f64 * factor) as u8,
            g: (self.g as f64 * factor) as u8,
            b: (self.b as f64 * factor) as u8,
        }
    }
}

/// The paper's four anchor colors, least to most intense.
pub const BLUE: Color = Color::rgb(43, 98, 209);
/// Green anchor ("less intense").
pub const GREEN: Color = Color::rgb(58, 178, 94);
/// Yellow anchor ("intense").
pub const YELLOW: Color = Color::rgb(243, 201, 55);
/// Red anchor ("most intense").
pub const RED: Color = Color::rgb(214, 49, 37);

/// How to color the terrain.
#[derive(Clone, Debug, PartialEq)]
pub enum ColorScheme {
    /// Color by the terrain's own scalar (the default).
    ByHeight,
    /// Color by a secondary per-element scalar: the color of a super node is
    /// the colormapped mean of its members' secondary values.
    BySecondaryScalar(Vec<f64>),
    /// Color by a nominal per-element class (e.g. role or genus): the color of
    /// a super node is the palette color of its members' majority class.
    ByClass {
        /// Class index per element.
        classes: Vec<usize>,
        /// Palette indexed by class.
        palette: Vec<Color>,
    },
}

/// The blue→green→yellow→red colormap on a normalized value in `[0, 1]`.
pub fn colormap(t: f64) -> Color {
    let t = t.clamp(0.0, 1.0);
    if t < 1.0 / 3.0 {
        Color::lerp(BLUE, GREEN, t * 3.0)
    } else if t < 2.0 / 3.0 {
        Color::lerp(GREEN, YELLOW, (t - 1.0 / 3.0) * 3.0)
    } else {
        Color::lerp(YELLOW, RED, (t - 2.0 / 3.0) * 3.0)
    }
}

/// The role palette of Figure 9: hub = green, dense community = blue,
/// periphery = red, whisker = gray (indexed by `measures::Role::code()`).
pub fn role_palette() -> Vec<Color> {
    vec![
        Color::rgb(58, 178, 94),   // hub -> green
        Color::rgb(43, 98, 209),   // dense community -> blue
        Color::rgb(214, 49, 37),   // periphery -> red
        Color::rgb(150, 150, 150), // whisker -> gray
    ]
}

/// Normalize a slice of values to `[0, 1]` (constant slices map to 0.5).
pub fn normalize_for_color(values: &[f64]) -> Vec<f64> {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !min.is_finite() || !max.is_finite() || max <= min {
        return vec![0.5; values.len()];
    }
    values.iter().map(|&v| (v - min) / (max - min)).collect()
}

/// Resolve the color of one super node given the coloring scheme.
///
/// `members` are the original element ids of the node, `normalized_height` is
/// the node's scalar normalized to `[0, 1]` over the whole tree.
pub fn node_color(scheme: &ColorScheme, members: &[u32], normalized_height: f64) -> Color {
    match scheme {
        ColorScheme::ByHeight => colormap(normalized_height),
        ColorScheme::BySecondaryScalar(values) => {
            if members.is_empty() {
                return colormap(normalized_height);
            }
            let normalized = normalize_for_color(values);
            let mean = members
                .iter()
                .map(|&m| normalized.get(m as usize).copied().unwrap_or(0.5))
                .sum::<f64>()
                / members.len() as f64;
            colormap(mean)
        }
        ColorScheme::ByClass { classes, palette } => {
            let mut counts = std::collections::HashMap::new();
            for &m in members {
                if let Some(&class) = classes.get(m as usize) {
                    *counts.entry(class).or_insert(0usize) += 1;
                }
            }
            counts
                .into_iter()
                .max_by_key(|&(class, count)| (count, std::cmp::Reverse(class)))
                .and_then(|(class, _)| palette.get(class).copied())
                .unwrap_or(Color::rgb(128, 128, 128))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colormap_endpoints_follow_the_paper_scale() {
        assert_eq!(colormap(0.0), BLUE);
        assert_eq!(colormap(1.0), RED);
        assert_eq!(colormap(1.0 / 3.0), GREEN);
        // Out-of-range inputs clamp.
        assert_eq!(colormap(-5.0), BLUE);
        assert_eq!(colormap(7.0), RED);
    }

    #[test]
    fn colormap_blueness_decreases_along_the_scale() {
        let mut previous = f64::INFINITY;
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            let c = colormap(t);
            // The blue channel decreases monotonically from BLUE to RED.
            assert!((c.b as f64) <= previous + 1e-9, "colormap blue channel not monotone at t={t}");
            previous = c.b as f64;
        }
    }

    #[test]
    fn hex_and_darken() {
        let c = Color::rgb(255, 128, 0);
        assert_eq!(c.hex(), "#ff8000");
        for v in [0u8, 9, 10, 15, 16, 127, 160, 255] {
            let c = Color::rgb(v, v.wrapping_mul(7), 255 - v);
            assert_eq!(c.hex(), format!("#{:02x}{:02x}{:02x}", c.r, c.g, c.b));
        }
        let d = c.darkened(0.5);
        assert_eq!(d, Color::rgb(127, 64, 0));
    }

    #[test]
    fn normalize_handles_constant_and_varying_inputs() {
        assert_eq!(normalize_for_color(&[3.0, 3.0]), vec![0.5, 0.5]);
        let n = normalize_for_color(&[1.0, 2.0, 3.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn node_color_by_secondary_scalar_averages_members() {
        let scheme = ColorScheme::BySecondaryScalar(vec![0.0, 10.0, 10.0, 0.0]);
        let c_high = node_color(&scheme, &[1, 2], 0.0);
        let c_low = node_color(&scheme, &[0, 3], 0.0);
        assert_eq!(c_high, colormap(1.0));
        assert_eq!(c_low, colormap(0.0));
    }

    #[test]
    fn node_color_by_class_takes_majority() {
        let scheme = ColorScheme::ByClass { classes: vec![0, 0, 1, 1, 1], palette: role_palette() };
        let c = node_color(&scheme, &[0, 2, 3, 4], 0.0);
        assert_eq!(c, role_palette()[1]);
        // Empty member list falls back to gray.
        let c = node_color(&scheme, &[], 0.0);
        assert_eq!(c, Color::rgb(128, 128, 128));
    }

    #[test]
    fn by_height_uses_normalized_height() {
        assert_eq!(node_color(&ColorScheme::ByHeight, &[0, 1], 1.0), RED);
    }
}
