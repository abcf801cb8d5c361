//! Consuming `--quick` from an [`ArgParser`]. The scales and the paper's figure
//! configurations themselves live in [`ccache_exp::scale`].

use crate::args::ArgParser;
use ccache_exp::scale::Scale;

/// Consumes the `--quick`/`-q` flag from an [`ArgParser`]. The scale is `Quick` exactly
/// when the flag appears as its own whole argument — substrings do not count, so a path
/// like `out/quick.json` must not flip the scale.
pub fn scale_from_parser(parser: &mut ArgParser) -> Scale {
    Scale::from_quick(parser.flag(&["--quick", "-q"]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_parser_consumes_the_flag() {
        for quick in ["--quick", "-q"] {
            let mut p = ArgParser::new("fig4", vec![quick.to_owned()]);
            assert_eq!(scale_from_parser(&mut p), Scale::Quick);
            p.finish().unwrap();
        }
        let mut p = ArgParser::new("fig4", Vec::new());
        assert_eq!(scale_from_parser(&mut p), Scale::Paper);
        // a flag is a whole-argument match, not a substring match — near-misses stay
        // Paper scale and are reported as unknown arguments instead
        for not_a_flag in ["out/quick.json", "--quicker", "quick", "notquick"] {
            let mut p = ArgParser::new("fig4", vec![not_a_flag.to_owned()]);
            assert_eq!(
                scale_from_parser(&mut p),
                Scale::Paper,
                "{not_a_flag:?} must not select the quick scale"
            );
            assert!(p.finish().is_err());
        }
    }
}
