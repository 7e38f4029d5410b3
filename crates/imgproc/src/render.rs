//! Minimal image output: RGB colours, colour maps and a binary PPM writer.
//!
//! The figure-regeneration binaries write their panels as PPM files so that
//! no external image dependency is required.

use crate::grid::Grid;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

/// An 8-bit RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Creates a colour from its three channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Pure black.
    pub const BLACK: Color = Color::new(0, 0, 0);
    /// Pure white.
    pub const WHITE: Color = Color::new(255, 255, 255);

    /// Linear interpolation between two colours, `t` clamped to `[0, 1]`.
    fn lerp(self, other: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| -> u8 { (a as f64 + (b as f64 - a as f64) * t).round() as u8 };
        Color::new(
            mix(self.r, other.r),
            mix(self.g, other.g),
            mix(self.b, other.b),
        )
    }
}

/// Continuous colour maps used when rendering heat maps and IoU panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColorMap {
    /// Red (low) → yellow → green (high); the paper's Fig. 1 convention.
    RedGreen,
    /// Dark blue (low) → bright yellow (high), a viridis-like ramp.
    Heat,
}

impl ColorMap {
    /// Maps a value in `[0, 1]` to a colour. Values outside the range are clamped.
    pub fn color(&self, value: f64) -> Color {
        let v = value.clamp(0.0, 1.0);
        match self {
            ColorMap::RedGreen => {
                let red = Color::new(200, 30, 30);
                let yellow = Color::new(230, 220, 50);
                let green = Color::new(30, 180, 40);
                if v < 0.5 {
                    red.lerp(yellow, v * 2.0)
                } else {
                    yellow.lerp(green, (v - 0.5) * 2.0)
                }
            }
            ColorMap::Heat => {
                let cold = Color::new(15, 20, 80);
                let mid = Color::new(200, 60, 80);
                let hot = Color::new(250, 230, 60);
                if v < 0.5 {
                    cold.lerp(mid, v * 2.0)
                } else {
                    mid.lerp(hot, (v - 0.5) * 2.0)
                }
            }
        }
    }
}

/// An RGB raster image that can be written as a binary PPM (P6) file.
#[derive(Debug, Clone, PartialEq)]
pub struct Ppm {
    pixels: Grid<Color>,
}

impl Ppm {
    /// Creates a black image of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            pixels: Grid::filled(width, height, Color::BLACK),
        }
    }

    /// Builds an image from a colour grid.
    pub fn from_grid(pixels: Grid<Color>) -> Self {
        Self { pixels }
    }

    /// Renders a scalar grid through a colour map, normalising values from
    /// `[lo, hi]` to `[0, 1]` (a degenerate range renders mid-scale).
    pub fn from_scalar(grid: &Grid<f64>, map: ColorMap, lo: f64, hi: f64) -> Self {
        let span = hi - lo;
        let pixels = grid.map(|&v| {
            let t = if span.abs() < 1e-15 {
                0.5
            } else {
                (v - lo) / span
            };
            map.color(t)
        });
        Self { pixels }
    }

    /// Width of the image.
    pub fn width(&self) -> usize {
        self.pixels.width()
    }

    /// Height of the image.
    pub fn height(&self) -> usize {
        self.pixels.height()
    }

    /// Access to the underlying colour grid.
    pub fn pixels(&self) -> &Grid<Color> {
        &self.pixels
    }

    /// Sets a single pixel.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the image.
    pub fn set(&mut self, x: usize, y: usize, color: Color) {
        self.pixels.set(x, y, color);
    }

    /// Serialises the image in binary PPM (P6) format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3 + 32);
        out.extend_from_slice(format!("P6\n{} {}\n255\n", self.width(), self.height()).as_bytes());
        for c in self.pixels.iter() {
            out.push(c.r);
            out.push(c.g);
            out.push(c.b);
        }
        out
    }

    /// Writes the image to any writer in binary PPM format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(&self.to_bytes())
    }

    /// Writes the image to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation and writing.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_to(io::BufWriter::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        let a = Color::new(0, 0, 0);
        let b = Color::new(255, 100, 40);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 2.0), b);
        let mid = a.lerp(b, 0.5);
        assert!(mid.r > 120 && mid.r < 135);
    }

    #[test]
    fn colormap_clamps_and_orders() {
        for map in [ColorMap::RedGreen, ColorMap::Heat] {
            let lo = map.color(-2.0);
            let hi = map.color(3.0);
            assert_eq!(lo, map.color(0.0));
            assert_eq!(hi, map.color(1.0));
        }
        // RedGreen: low values are red-dominant, high values green-dominant.
        let low = ColorMap::RedGreen.color(0.0);
        let high = ColorMap::RedGreen.color(1.0);
        assert!(low.r > low.g);
        assert!(high.g > high.r);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Ppm::new(3, 2);
        let bytes = img.to_bytes();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    fn ppm_from_scalar_normalises() {
        let grid = Grid::from_rows(vec![vec![0.0, 5.0], vec![10.0, 2.5]]).unwrap();
        let img = Ppm::from_scalar(&grid, ColorMap::Heat, 0.0, 10.0);
        assert_eq!(*img.pixels().get(0, 0), ColorMap::Heat.color(0.0));
        assert_eq!(*img.pixels().get(0, 1), ColorMap::Heat.color(1.0));
        // Degenerate range maps to the middle of the ramp instead of
        // dividing by zero.
        let flat = Ppm::from_scalar(&Grid::filled(2, 2, 1.0), ColorMap::Heat, 1.0, 1.0);
        assert_eq!(*flat.pixels().get(0, 0), ColorMap::Heat.color(0.5));
    }

    #[test]
    fn ppm_write_roundtrip_via_writer() {
        let mut img = Ppm::new(2, 2);
        img.set(1, 1, Color::new(9, 8, 7));
        let mut buf = Vec::new();
        img.write_to(&mut buf).unwrap();
        assert_eq!(buf, img.to_bytes());
        let tail = &buf[buf.len() - 3..];
        assert_eq!(tail, &[9, 8, 7]);
    }
}
