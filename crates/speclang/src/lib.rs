//! `eof-speclang` — the API specification language of the EOF reproduction.
//!
//! EOF generates *API-aware* inputs: instead of mutating opaque byte
//! buffers, it builds sequences of typed OS API calls whose arguments
//! satisfy the constraints a specification declares (paper §4.5). The
//! specification language is adapted from Syzkaller's Syzlang; behaviours
//! Syzlang does not model well are expressed as *pseudo syscalls*
//! (`syz_`-prefixed helpers that bundle an API sequence, like
//! `syz_create_bind_socket` in the paper's Figure 6).
//!
//! The crate contains the complete language pipeline:
//!
//! * [`lexer`] / [`parser`] — Syzlang-flavoured concrete syntax → AST;
//! * [`ast`] — specification files: resources, flag sets, API signatures
//!   with typed, constrained parameters;
//! * [`typecheck`](mod@typecheck) — the post-validation gate that admits
//!   only well-formed specifications to the corpus (the paper validates
//!   LLM output the same way);
//! * [`prog`] — concrete test cases: call sequences with argument values
//!   and resource references;
//! * [`wire`] — the compact binary encoding the host sends to the
//!   on-target agent, decodable with primitive operations only;
//! * [`display`] — human-readable rendering for corpus dumps and crash
//!   reports.

pub mod ast;
pub mod display;
pub mod lexer;
pub mod parser;
pub mod prog;
pub mod typecheck;
pub mod wire;

pub use ast::{ApiSpec, FlagSet, Param, ResourceDecl, SpecFile, TypeDesc};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse_spec, ParseError};
pub use prog::{ArgValue, Call, Prog};
pub use typecheck::{typecheck, TypeError};
pub use wire::{
    decode_prog, encode_prog, ApiBinding, ApiTable, WireCall, WireError, WireProg, PROG_MAGIC,
};
