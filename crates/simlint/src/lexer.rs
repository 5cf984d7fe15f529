//! A lightweight Rust lexer: just enough to walk receiver chains and
//! scopes without misreading comments, strings, raw strings, char
//! literals or lifetimes. No dependencies, by policy — this crate must
//! build in the vendored-offline environment.

/// Token kinds the checks care about. Literal contents are discarded:
/// no check reads inside a string or char.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (integers; floats split at the dot, which is
    /// harmless for these checks and keeps `x.0.lock()` readable).
    Num(String),
    /// Any single punctuation character: `{ } ( ) [ ] . ; , : = ...`.
    Punct(char),
    /// String literal (normal, raw, byte).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// One comment (line or block) with its 1-based start and end lines;
/// `text` includes the comment markers.
#[derive(Clone, Debug)]
pub struct Comment {
    pub text: String,
    pub start_line: u32,
    pub end_line: u32,
}

/// Lexes `src` into tokens and comments. Unterminated constructs
/// (possible in fixture files) terminate at end of input rather than
/// panicking.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            comments.push(Comment {
                text: b[start..i].iter().collect(),
                start_line: line,
                end_line: line,
            });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            comments.push(Comment {
                text: b[start..i].iter().collect(),
                start_line,
                end_line: line,
            });
            continue;
        }
        // Raw (and byte-raw) strings: r"..", r#".."#, br#".."#.
        if (c == 'r' || c == 'b') && i + 1 < n {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            if b[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < n && b[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == '"' {
                    let tok_line = line;
                    let mut m = k + 1;
                    'raw: while m < n {
                        if b[m] == '\n' {
                            line += 1;
                        }
                        if b[m] == '"' {
                            let mut h = 0;
                            while m + 1 + h < n && h < hashes && b[m + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                toks.push(Token {
                                    tok: Tok::Str,
                                    line: tok_line,
                                });
                                i = m + 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    if m >= n {
                        i = n;
                    }
                    continue;
                }
            }
        }
        // Normal (and byte) strings.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let tok_line = line;
            while j < n {
                if b[j] == '\\' {
                    j += 2;
                    continue;
                }
                if b[j] == '\n' {
                    line += 1;
                }
                if b[j] == '"' {
                    break;
                }
                j += 1;
            }
            toks.push(Token {
                tok: Tok::Str,
                line: tok_line,
            });
            i = (j + 1).min(n);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // Lifetime: 'ident not closed by a quote.
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut j = i + 1;
                while j < n && is_ident(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' && j == i + 2 {
                    // 'x' — a char literal after all.
                    toks.push(Token { tok: Tok::Char, line });
                    i = j + 1;
                    continue;
                }
                toks.push(Token { tok: Tok::Lifetime, line });
                i = j;
                continue;
            }
            // Escaped or punctuation char literal: '\n', '\'', '('.
            let mut j = i + 1;
            if j < n && b[j] == '\\' {
                j += 2;
            } else {
                j += 1;
            }
            while j < n && b[j] != '\'' {
                j += 1;
            }
            toks.push(Token { tok: Tok::Char, line });
            i = (j + 1).min(n);
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident(b[i]) {
                i += 1;
            }
            toks.push(Token {
                tok: Tok::Ident(b[start..i].iter().collect()),
                line,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && is_ident(b[i]) {
                i += 1;
            }
            toks.push(Token {
                tok: Tok::Num(b[start..i].iter().collect()),
                line,
            });
            continue;
        }
        toks.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    (toks, comments)
}

/// True when `tok` is the identifier `name`.
pub fn is_ident(tok: &Tok, name: &str) -> bool {
    matches!(tok, Tok::Ident(s) if s == name)
}

/// Index just past the balanced bracket that opens at `open` (which
/// must index a `(`/`[`/`{` token). Tolerates unbalanced input by
/// returning the end of the stream.
pub fn skip_balanced(toks: &[Token], open: usize) -> usize {
    let (o, c) = match toks[open].tok {
        Tok::Punct('(') => ('(', ')'),
        Tok::Punct('[') => ('[', ']'),
        Tok::Punct('{') => ('{', '}'),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok {
            Tok::Punct(p) if p == o => depth += 1,
            Tok::Punct(p) if p == c => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_strings_lifetimes() {
        let src = r##"
// line comment with "quote and lock(
/* block /* nested */ still */
fn f<'a>(x: &'a str) -> char {
    let s = "escaped \" lock() inside";
    let r = r#"raw "with" lock()"#;
    let c = '\'';
    let d = '(';
    x.0.lock()
}
"##;
        let (toks, comments) = lex(src);
        assert_eq!(comments.len(), 2);
        let idents: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        // No identifiers leaked out of comments or strings.
        assert!(idents.contains(&"lock"));
        assert_eq!(idents.iter().filter(|s| **s == "lock").count(), 1);
        assert!(toks.iter().any(|t| t.tok == Tok::Lifetime));
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Char).count(), 2);
        // x.0.lock(): tuple index stays a separate Num token.
        assert!(toks
            .windows(4)
            .any(|w| is_ident(&w[0].tok, "x")
                && w[1].tok == Tok::Punct('.')
                && w[2].tok == Tok::Num("0".into())
                && w[3].tok == Tok::Punct('.')));
    }
}
