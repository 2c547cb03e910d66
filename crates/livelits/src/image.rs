//! The image substrate for the live image filter case study (Sec. 2.5.3).
//!
//! The paper's `$basic_adjustments` livelit generates "calls to a browser
//! image processing framework" over photos loaded by URL. This module is
//! that framework's stand-in: grayscale images with brightness/contrast
//! adjustments, a procedural photo library keyed by URL (replacing the
//! photographer's Lightroom collection), ASCII rendering for character-grid
//! previews, and a bridge that reflects images and the adjustment operators
//! into the object language so expansions can compute with them.

use hazel_lang::build;
use hazel_lang::external::EExp;
use hazel_lang::ident::Label;
use hazel_lang::internal::IExp;
use hazel_lang::typ::Typ;

/// A grayscale image: `width × height` pixels, each `0..=255`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Row-major pixel intensities.
    pub pixels: Vec<u8>,
}

impl Image {
    /// Creates a constant-intensity image.
    pub fn solid(width: usize, height: usize, value: u8) -> Image {
        Image {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Creates an image from a generator function of (x, y).
    pub fn from_fn(width: usize, height: usize, f: impl Fn(usize, usize) -> u8) -> Image {
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// The pixel at (x, y).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.width + x]
    }

    /// Adjusts brightness by `delta` (positive brightens), saturating at
    /// the intensity bounds.
    pub fn brightness(&self, delta: i32) -> Image {
        self.map_pixels(|p| p as i32 + delta)
    }

    /// Adjusts contrast by `percent` in `-100..=100`: `0` is identity,
    /// positive stretches intensities away from mid-gray (128), negative
    /// compresses toward it.
    pub fn contrast(&self, percent: i32) -> Image {
        self.map_pixels(|p| (p as i32 - 128) * (100 + percent) / 100 + 128)
    }

    /// Inverts intensities.
    pub fn invert(&self) -> Image {
        self.map_pixels(|p| 255 - p as i32)
    }

    fn map_pixels(&self, f: impl Fn(u8) -> i32) -> Image {
        Image {
            width: self.width,
            height: self.height,
            pixels: self
                .pixels
                .iter()
                .map(|&p| f(p).clamp(0, 255) as u8)
                .collect(),
        }
    }

    /// Mean intensity, for tests and histograms.
    pub fn mean(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Renders the image as ASCII art, one character per pixel, dark to
    /// light — the livelit's character-grid preview (Sec. 5.3 layout works
    /// in character units).
    pub fn to_ascii(&self) -> Vec<String> {
        const RAMP: &[u8] = b" .:-=+*#%@";
        (0..self.height)
            .map(|y| {
                (0..self.width)
                    .map(|x| {
                        let p = self.get(x, y) as usize;
                        // Invert the ramp so bright pixels are light chars.
                        RAMP[(255 - p) * (RAMP.len() - 1) / 255] as char
                    })
                    .collect()
            })
            .collect()
    }
}

/// The procedural photo library: deterministic synthetic "photos" keyed by
/// URL, standing in for the photographer's image collection.
pub fn load_image(url: &str) -> Image {
    // A small FNV-style hash seeds the generator so distinct URLs give
    // visually distinct images.
    let mut h: u32 = 2166136261;
    for b in url.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    let w = 12;
    let hgt = 6;
    Image::from_fn(w, hgt, |x, y| {
        let fx = x as u32;
        let fy = y as u32;
        // Layered bands and a highlight dependent on the hash.
        let base = 40 + ((fx * 17 + fy * 31 + h % 97) % 160) as i32;
        let highlight = if (fx + h % 5).is_multiple_of(4) {
            40
        } else {
            0
        };
        (base + highlight).clamp(0, 255) as u8
    })
}

// ------------------------------------------------------------------------
// Object-language reflection
// ------------------------------------------------------------------------

/// The object-language image type:
/// `Img = (.w Int, .h Int, .px List(Int))`.
pub fn img_typ() -> Typ {
    Typ::prod([
        (Label::new("w"), Typ::Int),
        (Label::new("h"), Typ::Int),
        (Label::new("px"), Typ::list(Typ::Int)),
    ])
}

/// Reflects an image into an object-language value of type [`img_typ`].
pub fn image_to_value(img: &Image) -> IExp {
    hazel_lang::value::iv::record([
        ("w", IExp::Int(img.width as i64)),
        ("h", IExp::Int(img.height as i64)),
        (
            "px",
            hazel_lang::value::iv::list(Typ::Int, img.pixels.iter().map(|&p| IExp::Int(p as i64))),
        ),
    ])
}

/// Reflects an image into an external expression (for context bindings).
pub fn image_to_eexp(img: &Image) -> EExp {
    build::record([
        ("w", build::int(img.width as i64)),
        ("h", build::int(img.height as i64)),
        (
            "px",
            build::list(Typ::Int, img.pixels.iter().map(|&p| build::int(p as i64))),
        ),
    ])
}

/// Extracts an image from an object-language value.
pub fn image_from_value(d: &IExp) -> Option<Image> {
    let w = d.field(&Label::new("w"))?.as_int()?;
    let h = d.field(&Label::new("h"))?.as_int()?;
    let px = d.field(&Label::new("px"))?.list_elements()?;
    let pixels: Option<Vec<u8>> = px
        .iter()
        .map(|p| p.as_int().map(|n| n.clamp(0, 255) as u8))
        .collect();
    let pixels = pixels?;
    if pixels.len() != (w * h) as usize || w < 0 || h < 0 {
        return None;
    }
    Some(Image {
        width: w as usize,
        height: h as usize,
        pixels,
    })
}

/// The object-language source of the image-processing "framework": the
/// definitions `clamp_px`, `map_px`, `adjust_brightness`, and
/// `adjust_contrast`, written in surface syntax. These are the library the
/// `$basic_adjustments` expansion calls into via its definition-site
/// context.
pub fn framework_source() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "clamp_px",
            "Int -> Int",
            "fun p : Int -> if p < 0 then 0 else if p > 255 then 255 else p",
        ),
        (
            "map_px",
            "(Int -> Int) -> List(Int) -> List(Int)",
            "fun f : (Int -> Int) -> fix go : (List(Int) -> List(Int)) -> \
             fun xs : List(Int) -> lcase xs | [] -> [Int|] | h :: t -> f h :: go t end",
        ),
        (
            "adjust_brightness",
            "(.w Int, .h Int, .px List(Int)) -> Int -> (.w Int, .h Int, .px List(Int))",
            "fun img : (.w Int, .h Int, .px List(Int)) -> fun b : Int -> \
             (.w img.w, .h img.h, .px map_px (fun p : Int -> clamp_px (p + b)) img.px)",
        ),
        (
            "adjust_contrast",
            "(.w Int, .h Int, .px List(Int)) -> Int -> (.w Int, .h Int, .px List(Int))",
            "fun img : (.w Int, .h Int, .px List(Int)) -> fun c : Int -> \
             (.w img.w, .h img.h, .px map_px \
              (fun p : Int -> clamp_px ((p - 128) * (100 + c) / 100 + 128)) img.px)",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solid_and_from_fn() {
        let img = Image::solid(4, 2, 100);
        assert_eq!(img.pixels.len(), 8);
        assert_eq!(img.get(3, 1), 100);
        let grad = Image::from_fn(4, 1, |x, _| (x * 10) as u8);
        assert_eq!(grad.get(2, 0), 20);
    }

    #[test]
    fn brightness_saturates() {
        let img = Image::solid(2, 2, 250);
        assert_eq!(img.brightness(20).get(0, 0), 255);
        assert_eq!(img.brightness(-255).get(0, 0), 0);
        assert_eq!(img.brightness(0), img);
    }

    #[test]
    fn contrast_pivots_on_mid_gray() {
        let img = Image::solid(1, 1, 128);
        // Mid-gray is the fixed point of contrast adjustment.
        assert_eq!(img.contrast(50).get(0, 0), 128);
        let dark = Image::solid(1, 1, 64);
        assert!(
            dark.contrast(50).get(0, 0) < 64,
            "positive contrast darkens darks"
        );
        assert!(
            dark.contrast(-50).get(0, 0) > 64,
            "negative contrast lifts darks"
        );
    }

    #[test]
    fn invert_is_involutive() {
        let img = load_image("test://photo");
        assert_eq!(img.invert().invert(), img);
    }

    #[test]
    fn load_image_is_deterministic_and_url_sensitive() {
        assert_eq!(load_image("a"), load_image("a"));
        assert_ne!(load_image("a"), load_image("b"));
    }

    #[test]
    fn ascii_rendering_has_image_dimensions() {
        let img = load_image("x");
        let art = img.to_ascii();
        assert_eq!(art.len(), img.height);
        assert!(art.iter().all(|row| row.chars().count() == img.width));
    }

    #[test]
    fn value_roundtrip() {
        let img = load_image("roundtrip");
        let v = image_to_value(&img);
        assert!(hazel_lang::value::value_has_typ(&v, &img_typ()));
        assert_eq!(image_from_value(&v), Some(img));
    }

    #[test]
    fn image_from_value_rejects_bad_shapes() {
        // Pixel count inconsistent with dimensions.
        let bad = hazel_lang::value::iv::record([
            ("w", IExp::Int(2)),
            ("h", IExp::Int(2)),
            ("px", hazel_lang::value::iv::list(Typ::Int, [IExp::Int(1)])),
        ]);
        assert_eq!(image_from_value(&bad), None);
        assert_eq!(image_from_value(&IExp::Int(1)), None);
    }

    #[test]
    fn framework_source_parses_and_types() {
        use hazel_lang::parse::{parse_eexp, parse_typ};
        use hazel_lang::typing::{ana, Ctx};
        let mut ctx = Ctx::empty();
        for (name, ty_src, def_src) in framework_source() {
            let ty = parse_typ(ty_src).unwrap_or_else(|e| panic!("{name} type: {e}"));
            let def = parse_eexp(def_src).unwrap_or_else(|e| panic!("{name} def: {e}"));
            ana(&ctx, &def, &ty).unwrap_or_else(|e| panic!("{name} ill-typed: {e}"));
            ctx = ctx.extend(hazel_lang::Var::new(name), ty);
        }
    }

    #[test]
    fn object_language_brightness_matches_substrate() {
        // The reflected framework computes the same images as the Rust
        // substrate — the provider's preview cannot drift from the
        // expansion's semantics.
        use hazel_lang::parse::{parse_eexp, parse_typ};
        use hazel_lang::typing::Ctx;

        let img = load_image("consistency");
        // Build: adjust_brightness <img> 30, with the framework let-bound.
        let mut program = parse_eexp("adjust_brightness img 30").unwrap();
        program = hazel_lang::EExp::Let(
            hazel_lang::Var::new("img"),
            Some(img_typ()),
            Box::new(image_to_eexp(&img)),
            Box::new(program),
        );
        for (name, ty_src, def_src) in framework_source().into_iter().rev() {
            program = hazel_lang::EExp::Let(
                hazel_lang::Var::new(name),
                Some(parse_typ(ty_src).unwrap()),
                Box::new(parse_eexp(def_src).unwrap()),
                Box::new(program),
            );
        }
        let (d, _, _) = hazel_lang::elab::elab_syn(&Ctx::empty(), &program).unwrap();
        let result = hazel_lang::eval::eval_traced(&d, 4_000_000).unwrap();
        let computed = image_from_value(&result).expect("image result");
        assert_eq!(computed, img.brightness(30));
    }
}
