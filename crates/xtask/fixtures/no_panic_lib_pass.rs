//! Expected-pass fixture for `no-panic-lib`: typed errors, doc
//! examples, `debug_assert!`, the allow escape hatch, and test code are
//! all fine.

/// Doc examples are comments to the lexer, so their panics never fire
/// the rule:
///
/// ```
/// let x: Option<u32> = Some(1);
/// assert_eq!(x.unwrap(), 1);
/// ```
pub fn load(input: Option<u32>) -> Result<u32, String> {
    debug_assert!(input.is_none() || input >= Some(0), "compiled out of release");
    input.ok_or_else(|| "missing input".to_string())
}

pub fn trusted(input: Option<u32>) -> u32 {
    // pcm-lint: allow(no-panic-lib) — fixture: demonstrates the justified-infallible escape hatch.
    input.unwrap()
}

/// A parser's own `expect(byte, what)` is a method with two arguments,
/// not `Option`/`Result::expect`, and returns a typed error.
pub struct Parser<'a> {
    bytes: &'a [u8],
}

impl Parser<'_> {
    fn expect(&mut self, byte: u8, what: &str) -> Result<(), String> {
        match self.bytes.split_first() {
            Some((&b, rest)) if b == byte => {
                self.bytes = rest;
                Ok(())
            }
            _ => Err(format!("expected {what}")),
        }
    }

    pub fn colon(&mut self) -> Result<(), String> {
        self.expect(b':', "object")
    }
}

// A string mentioning unwrap() must not trip the lexer either.
pub const HINT: &str = "never call unwrap() on user input";

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        assert!(super::load(None).is_err());
        super::load(Some(1)).unwrap();
        if false {
            panic!("unreachable but legal in tests");
        }
    }
}
