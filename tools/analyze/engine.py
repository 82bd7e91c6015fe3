"""Source model for afs_lint: tokenizer + lightweight C++ structure.

The suite's checks need three things from the sources: which functions
exist (with their annotations and return types), what each function body
calls (with enough receiver typing to resolve `fds_.control_write.Close()`
to `PipeEnd::Close`), and which class members exist (with their
`AFS_GUARDED_BY` annotations).  A full frontend (libclang) can answer all
three precisely; this module answers them from a token stream so the suite
also runs on hosts whose toolchain has no libclang (GCC-only CI included).

The grammar subset is deliberate: the repo is clang-formatted, never puts
function bodies inside macros, and declares one member per statement, so a
brace/paren-matching scanner recovers the structure that matters.  Where
the model over- or under-approximates, the checks compensate (see each
check's precision notes) and the committed baseline absorbs the rest.

Stdlib only; no third-party imports.
"""

from __future__ import annotations

import dataclasses
import os
import re
from typing import Iterable, Optional

# ---------------------------------------------------------------------------
# Tokenizer


@dataclasses.dataclass(frozen=True)
class Tok:
    kind: str  # 'ident' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")

# Multi-char operators the parser cares about; everything else is emitted
# one character at a time.  `>>` is deliberately absent: emitting it as two
# `>` tokens keeps angle-depth tracking correct for nested template
# closers (`Result<std::vector<std::string>>`), and nothing downstream
# needs right-shift as a unit.
_PUNCT2 = {"::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
           "*=", "/=", "|=", "&=", "^=", "<<"}

# afs-lint suppression directives live in comments:
#   // afs-lint: allow(check-name: reason)
# and cover findings on the same line or the line directly below.
_ALLOW_RE = re.compile(r"afs-lint:\s*allow\(([a-z-]+)(?::\s*([^)]*))?\)")


class SourceFile:
    """One tokenized file plus its comment-carried lint directives."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.tokens: list[Tok] = []
        # line -> set of check names allowed on that line (and the next).
        self.allows: dict[int, set[str]] = {}
        self._tokenize(text)

    def allowed(self, check: str, line: int) -> bool:
        for probe in (line, line - 1):
            if check in self.allows.get(probe, ()):  # same or preceding line
                return True
        return False

    def _note_comment(self, comment: str, line: int) -> None:
        m = _ALLOW_RE.search(comment)
        if m:
            self.allows.setdefault(line, set()).add(m.group(1))

    def _tokenize(self, text: str) -> None:  # noqa: C901 (one hot loop)
        toks = self.tokens
        i, n, line = 0, len(text), 1
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                i += 1
            elif c in " \t\r\f\v":
                i += 1
            elif c == "/" and i + 1 < n and text[i + 1] == "/":
                j = text.find("\n", i)
                j = n if j < 0 else j
                self._note_comment(text[i:j], line)
                i = j
            elif c == "/" and i + 1 < n and text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n - 2 if j < 0 else j
                self._note_comment(text[i:j], line)
                line += text.count("\n", i, j + 2)
                i = j + 2
            elif c == "#":
                # Preprocessor logical line (with continuations): skipped —
                # the model reads annotations from the macro *uses*, and
                # conditional-compilation branches are all scanned (fail
                # open: a finding behind an #ifdef is still a finding).
                j = i
                while j < n:
                    k = text.find("\n", j)
                    k = n if k < 0 else k
                    if text[k - 1] == "\\" if k > 0 else False:
                        line += 1
                        j = k + 1
                    else:
                        break
                line += 1
                i = k + 1 if k < n else n
            elif c == '"':
                if toks and toks[-1].kind == "ident" and \
                        toks[-1].text.endswith("R") and i and text[i - 1] == "R" \
                        or (i and text[i - 1] == "R"):
                    # Raw string R"delim( ... )delim"
                    m = re.match(r'"([^(\s"\\]{0,16})\(', text[i:])
                    if m:
                        delim = ")" + m.group(1) + '"'
                        j = text.find(delim, i + m.end())
                        j = n - len(delim) if j < 0 else j
                        body = text[i:j + len(delim)]
                        toks.append(Tok("str", body, line))
                        line += body.count("\n")
                        i = j + len(delim)
                        continue
                j = i + 1
                while j < n and text[j] not in ('"', "\n"):
                    j += 2 if text[j] == "\\" else 1
                toks.append(Tok("str", text[i:j + 1], line))
                i = j + 1
            elif c == "'":
                # Char literals never span lines; bounding the scan at the
                # newline keeps a stray apostrophe from eating the file.
                j = i + 1
                while j < n and text[j] not in ("'", "\n"):
                    j += 2 if text[j] == "\\" else 1
                toks.append(Tok("chr", text[i:j + 1], line))
                i = j + 1
            elif c in _IDENT_START:
                j = i + 1
                while j < n and text[j] in _IDENT_CONT:
                    j += 1
                toks.append(Tok("ident", text[i:j], line))
                i = j
            elif c.isdigit():
                j = i + 1
                while j < n and (text[j] in _IDENT_CONT or text[j] == "."
                                 or (text[j] in "+-" and text[j - 1] in "eEpP")
                                 or (text[j] == "'" and j + 1 < n
                                     and text[j + 1] in _IDENT_CONT)):
                    j += 1
                toks.append(Tok("num", text[i:j], line))
                i = j
            else:
                two = text[i:i + 2]
                if two in _PUNCT2:
                    toks.append(Tok("punct", two, line))
                    i += 2
                else:
                    toks.append(Tok("punct", c, line))
                    i += 1


# ---------------------------------------------------------------------------
# Structural model


@dataclasses.dataclass
class Call:
    name: str
    line: int
    nargs: int
    kind: str               # 'free' | 'method' | 'qualified'
    quals: tuple[str, ...]  # `ipc::ReadFrame` -> ('ipc',); `::read` -> ('',)
    recv: tuple[str, ...]   # `fds_.pipe->Close()` -> ('fds_', 'pipe')
    arg_idents: frozenset[str]  # top-level identifier spellings in the args


@dataclasses.dataclass
class Member:
    name: str
    line: int
    type_text: str
    type_name: str          # last class-ish identifier of the type
    annotations: set[str]
    is_static: bool
    is_const: bool


@dataclasses.dataclass
class MethodDecl:
    name: str
    line: int
    ret_text: str
    annotations: set[str]


@dataclasses.dataclass
class ClassInfo:
    name: str
    qualname: str
    path: str
    line: int
    kind: str               # 'class' | 'struct'
    bases: list[str]
    members: list[Member] = dataclasses.field(default_factory=list)
    method_decls: dict[str, MethodDecl] = dataclasses.field(default_factory=dict)

    def member(self, name: str) -> Optional[Member]:
        for m in self.members:
            if m.name == name:
                return m
        return None


@dataclasses.dataclass
class Function:
    name: str               # unqualified ('ReadFrame', 'AF_GetResponse')
    qualname: str           # 'afs::ipc::ReadFrame', 'PipeLink::AF_GetResponse'
    cls: Optional[str]      # simple class name for methods
    path: str
    line: int
    ret_text: str
    params_text: str
    annotations: set[str]
    nparams: int
    calls: list[Call] = dataclasses.field(default_factory=list)
    local_types: dict[str, str] = dataclasses.field(default_factory=dict)
    is_defn: bool = True


_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else", "try",
                     "catch", "return", "case", "default", "goto", "new",
                     "delete", "throw", "sizeof", "co_return", "co_await"}
_TYPE_HEADS = {"class", "struct", "union", "enum"}
_STORAGE = {"static", "inline", "virtual", "explicit", "constexpr", "extern",
            "friend", "typedef", "using", "mutable", "consteval", "constinit"}
# Tokens legal between a function's `)` and its `{` (plus trailing-return
# and ctor-init-list sequences, handled specially).
_FUNC_TRAILERS = {"const", "noexcept", "override", "final", "mutable", "try",
                  "&", "&&", "throw"}


def _match(toks: list[Tok], i: int, open_: str, close: str) -> int:
    """Index just past the token closing the group opened at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _strip_access_label(head: list[Tok]) -> list[Tok]:
    """Drops a leading `public:`/`private:`/`protected:` — the first
    declaration after an access label shares its statement buffer."""
    while len(head) >= 2 and head[0].text in (
            "public", "private", "protected") and head[1].text == ":":
        head = head[2:]
    return head


class FileModel:
    def __init__(self, src: SourceFile):
        self.src = src
        self.path = src.path
        self.classes: list[ClassInfo] = []
        self.functions: list[Function] = []
        self.free_decls: dict[str, MethodDecl] = {}
        _Parser(src, self).run()


class _Parser:
    """Single pass over the token stream, tracking namespace/class scope."""

    def __init__(self, src: SourceFile, out: FileModel):
        self.src = src
        self.toks = src.tokens
        self.out = out

    def run(self) -> None:
        self._scan(0, len(self.toks), ns=(), cls=None)

    # -- scope scanning ----------------------------------------------------

    def _scan(self, i: int, end: int, ns: tuple[str, ...],
              cls: Optional[ClassInfo]) -> None:
        toks = self.toks
        stmt = i
        while i < end:
            t = toks[i].text
            if t == ";":
                self._statement(stmt, i, ns, cls)
                i += 1
                stmt = i
            elif t == "(" or t == "[":
                i = _match(toks, i, t, ")" if t == "(" else "]")
            elif t == "}":
                i += 1
                stmt = i
            elif t == "{":
                i = self._block(stmt, i, end, ns, cls)
                stmt = i
            else:
                i += 1

    def _block(self, stmt: int, brace: int, end: int, ns: tuple[str, ...],
               cls: Optional[ClassInfo]) -> int:
        """Dispatches on what the buffered header before `{` declares."""
        toks = self.toks
        close = _match(toks, brace, "{", "}")
        head = _strip_access_label(toks[stmt:brace])
        words = [t.text for t in head]

        if "namespace" in words[:2]:
            inner = tuple(w for w in words[words.index("namespace") + 1:]
                          if w not in ("::", "inline"))
            self._scan(brace + 1, close - 1, ns + inner, cls)
            return close

        if words[:2] == ["extern", '"C"'] or (words and words[0] == "extern"):
            self._scan(brace + 1, close - 1, ns, cls)
            return close

        kind_idx = next((k for k, w in enumerate(words)
                         if w in _TYPE_HEADS and
                         (k == 0 or words[k - 1] != "enum")), None)
        if kind_idx is not None and words[kind_idx] != "enum" and \
                "(" not in words[:kind_idx]:
            if "enum" in words[:kind_idx]:
                return close  # enum class / enum struct: no members to model
            info = self._class_header(head, kind_idx, ns)
            if info is not None:
                self.out.classes.append(info)
                self._scan(brace + 1, close - 1, ns, info)
                return close
        if words and words[0] == "enum":
            return close

        fn = self._try_function(head, stmt, brace, ns, cls)
        if fn is not None:
            self._harvest_body(fn, brace + 1, close - 1, cls)
            self.out.functions.append(fn)
            return close

        if cls is not None and words and words[0] not in _CONTROL_KEYWORDS \
                and self._first_toplevel_paren(head) is None:
            # Brace-initialized member: `Micros heartbeat_interval_{0};`
            # (annotation-macro groups are not declarator parens).
            m = self._member_decl(head)
            if m is not None:
                cls.members.append(m)
                return close

        # Control-flow block, lambda body at namespace scope, array
        # initializer, … — scan through for nested structure.
        self._scan(brace + 1, close - 1, ns, cls)
        return close

    def _class_header(self, head: list[Tok], kind_idx: int,
                      ns: tuple[str, ...]) -> Optional[ClassInfo]:
        words = [t.text for t in head]
        name = None
        j = kind_idx + 1
        while j < len(words):
            w = words[j]
            if w in ("final", "alignas") or w.startswith("AFS_") or w == "[":
                j += 1
                continue
            if w == "(":  # attribute/macro arguments: skip the group
                depth = 0
                while j < len(words):
                    depth += words[j] == "("
                    depth -= words[j] == ")"
                    j += 1
                    if depth == 0:
                        break
                continue
            if head[j].kind == "ident":
                name = w  # last plain identifier before ':'/'{' wins
                j += 1
                continue
            break
        if name is None:
            return None
        bases = []
        if ":" in words[j:]:
            for k in range(words.index(":", j) + 1, len(words)):
                if head[k].kind == "ident" and words[k] not in (
                        "public", "private", "protected", "virtual"):
                    bases.append(words[k])
        return ClassInfo(name=name, qualname="::".join(ns + (name,)),
                         path=self.src.path, line=head[0].line,
                         kind=words[kind_idx], bases=bases)

    # -- declarations ------------------------------------------------------

    def _statement(self, lo: int, hi: int, ns: tuple[str, ...],
                   cls: Optional[ClassInfo]) -> None:
        """A `;`-terminated statement at namespace or class scope."""
        toks = self.toks
        head = _strip_access_label(toks[lo:hi])
        if not head:
            return
        words = [t.text for t in head]
        if words[0] in ("using", "typedef", "template", "friend"):
            return
        paren = self._first_toplevel_paren(head)
        is_method = (
            paren is not None and paren > 0 and head[paren - 1].kind == "ident"
            and not head[paren - 1].text.startswith("AFS_")
            and head[paren - 1].text not in _CONTROL_KEYWORDS
            and not (paren >= 2 and head[paren - 2].text in ("*", "&")))
        if is_method:
            name = head[paren - 1].text
            ret = " ".join(w for w in words[:paren - 1]
                           if w not in _STORAGE)
            annotations = {w for w in words if w.startswith("AFS_")}
            decl = MethodDecl(name=name, line=head[0].line, ret_text=ret,
                              annotations=annotations)
            if cls is not None:
                # Keep the richer of duplicate decls (overloads share a slot).
                prior = cls.method_decls.get(name)
                if prior is not None:
                    decl.annotations |= prior.annotations
                cls.method_decls[name] = decl
            else:
                prior = self.out.free_decls.get(name)
                if prior is not None:
                    decl.annotations |= prior.annotations
                self.out.free_decls[name] = decl
        elif cls is not None:
            m = self._member_decl(head)
            if m is not None:
                cls.members.append(m)

    def _first_toplevel_paren(self, head: list[Tok]) -> Optional[int]:
        depth_angle = 0
        for k, t in enumerate(head):
            if t.text == "<":
                depth_angle += 1
            elif t.text == ">":
                depth_angle = max(0, depth_angle - 1)
            elif t.text == "(" and depth_angle == 0:
                # Annotation-macro groups are not the declarator's parens.
                if k > 0 and head[k - 1].text.startswith("AFS_"):
                    return self._first_toplevel_paren_after(head, k)
                return k
        return None

    def _first_toplevel_paren_after(self, head: list[Tok],
                                    macro_paren: int) -> Optional[int]:
        end = _match(head, macro_paren, "(", ")")
        rest = self._first_toplevel_paren(head[end:])
        return None if rest is None else end + rest

    def _member_decl(self, head: list[Tok]) -> Optional[Member]:
        # (callers pre-strip access labels via _strip_access_label)
        words = [t.text for t in head]
        if not words or words[0] in ("public", "private", "protected"):
            return None
        if "operator" in words:
            return None  # `T& operator=(…) = delete;` is not a member
        if len(words) == 2 and words[0] in _TYPE_HEADS:
            return None  # nested forward declaration: `struct Session;`
        annotations = {w for w in words if w.startswith("AFS_")}
        # Strip trailing annotation groups and initializers to find the name.
        k = len(head)
        depth = 0
        cut = k
        for idx in range(k):
            t = words[idx]
            if t in ("=", "{") and depth == 0:
                cut = idx
                break
            if t.startswith("AFS_") and idx + 1 < k and words[idx + 1] == "(":
                cut = idx
                break
            depth += t in ("(", "[", "<")
            depth -= t in (")", "]", ">")
        decl = head[:cut]
        while decl and decl[-1].text in ("]", "[") or \
                (decl and decl[-1].kind == "num"):
            decl = decl[:-1]  # array extents
        if len(decl) < 2 or decl[-1].kind != "ident":
            return None
        name = decl[-1].text
        type_toks = decl[:-1]
        type_words = [t.text for t in type_toks if t.text not in _STORAGE]
        if not type_words:
            return None
        # Builtin-only types (`bool shutdown_`) have no class-ish identifier;
        # the member still exists (type_name "" just never resolves).
        type_name = _last_type_ident(type_toks) or ""
        return Member(name=name, line=head[0].line,
                      type_text=" ".join(type_words), type_name=type_name,
                      annotations=annotations,
                      is_static="static" in words,
                      is_const="const" in type_words)

    # -- function definitions ----------------------------------------------

    def _try_function(self, head: list[Tok], stmt: int, brace: int,
                      ns: tuple[str, ...],
                      cls: Optional[ClassInfo]) -> Optional[Function]:
        words = [t.text for t in head]
        if not words or words[0] in _CONTROL_KEYWORDS or words[0] == "[":
            return None
        if words[0] == "template":
            # Drop the template<...> prefix and retry on the remainder.
            if len(words) > 1 and words[1] == "<":
                depth, k = 0, 1
                while k < len(words):
                    depth += words[k] == "<"
                    depth -= words[k] == ">"
                    k += 1
                    if depth == 0:
                        break
                return self._try_function(head[k:], stmt, brace, ns, cls)
            return None

        # Find the parameter list: the last top-level (...) group whose
        # trailing tokens are all legal function trailers / an init list.
        groups = []
        depth = 0
        k = 0
        while k < len(head):
            t = words[k]
            if t == "(" and depth == 0:
                end = _match(head, k, "(", ")")
                groups.append((k, end))
                k = end
            else:
                depth += t in ("[",)
                depth -= t in ("]",)
                k += 1
        # Forward order: for a constructor the *first* valid group is the
        # parameter list (the init-list groups after `:` also have clean
        # trailers, but the `:` trailer of group one claims them).
        init_list_from = None
        params = None
        for (gk, gend) in groups:
            trailer = head[gend:]
            tw = [t.text for t in trailer]
            ok = True
            idx = 0
            while idx < len(tw):
                w = tw[idx]
                if w in _FUNC_TRAILERS:
                    idx += 1
                elif w.startswith("AFS_"):
                    idx += 1
                    if idx < len(tw) and tw[idx] == "(":
                        idx = _match(trailer, idx, "(", ")")
                elif w == "->":
                    idx = len(tw)  # trailing return type: accept the rest
                elif w == ":":
                    init_list_from = gend + idx + 1
                    idx = len(tw)  # ctor init list: accept the rest
                elif w == "(":  # noexcept(...) / throw() argument group
                    idx = _match(trailer, idx, "(", ")")
                else:
                    ok = False
                    break
            if ok and gk > 0 and head[gk - 1].kind == "ident":
                params = (gk, gend)
                break
            init_list_from = None
        if params is None:
            return None
        gk, gend = params
        namechain = []
        k = gk - 1
        while k >= 0:
            if head[k].kind == "ident":
                namechain.insert(0, head[k].text)
                if k >= 1 and head[k - 1].text == "~":
                    namechain[0] = "~" + namechain[0]
                    k -= 1
                if k >= 2 and head[k - 1].text == "::":
                    k -= 2
                    continue
            break
        if not namechain or namechain[-1].startswith("AFS_"):
            return None
        name = namechain[-1]
        if name in _CONTROL_KEYWORDS or name == "operator":
            return None
        ret = " ".join(w for w in words[:max(0, k + 1)] if w not in _STORAGE)
        # A leading identifier with no return type at namespace scope is a
        # constructor definition (Class::Class) or a macro invocation; only
        # the former has a :: qualifier or matching class scope.
        if not ret and cls is None and len(namechain) < 2 and \
                init_list_from is None and not name[0].isupper():
            return None
        # `head` runs to the brace, so trailer annotations are in `words`.
        annotations = {w for w in words if w.startswith("AFS_")}
        cls_name = cls.name if cls is not None else (
            namechain[-2] if len(namechain) >= 2 else None)
        qual = "::".join(ns + tuple(namechain)) if cls is None else \
            "::".join(ns + (cls.name, name))
        params_text = " ".join(t.text for t in head[gk + 1:gend - 1])
        nparams = _count_toplevel_commas(head[gk + 1:gend - 1])
        fn = Function(name=name, qualname=qual, cls=cls_name,
                      path=self.src.path, line=head[0].line, ret_text=ret,
                      params_text=params_text,
                      annotations=annotations, nparams=nparams)
        if init_list_from is not None:
            self._harvest_calls(fn, stmt + init_list_from, brace, cls)
        self._harvest_params(fn, head[gk + 1:gend - 1])
        return fn

    # -- bodies ------------------------------------------------------------

    def _harvest_params(self, fn: Function, ptoks: list[Tok]) -> None:
        for group in _split_toplevel(ptoks):
            decl = [t for t in group if t.text not in _STORAGE]
            while decl and decl[-1].text in ("=",):
                decl = decl[:-1]
            if len(decl) >= 2 and decl[-1].kind == "ident":
                tname = _last_type_ident(decl[:-1])
                if tname:
                    fn.local_types[decl[-1].text] = tname

    def _harvest_body(self, fn: Function, lo: int, hi: int,
                      cls: Optional[ClassInfo]) -> None:
        self._harvest_calls(fn, lo, hi, cls)
        self._harvest_locals(fn, lo, hi)

    def _harvest_locals(self, fn: Function, lo: int, hi: int) -> None:
        """Records `Type name` local declarations for receiver typing."""
        toks = self.toks
        k = lo
        while k < hi - 1:
            t = toks[k]
            if t.kind == "ident" and t.text not in _CONTROL_KEYWORDS and \
                    toks[k + 1].kind == "ident":
                nxt = toks[k + 2].text if k + 2 < hi else ";"
                if nxt in (";", "=", "(", "{"):
                    fn.local_types.setdefault(toks[k + 1].text, t.text)
            elif t.kind == "ident" and t.text not in _CONTROL_KEYWORDS and \
                    toks[k + 1].text == "&" and k + 2 < hi and \
                    toks[k + 2].kind == "ident":
                # `Type& name = …` reference locals (including the cached
                # `static obs::Counter& c = Registry…` idiom): the `&` hides
                # these from the branch above, which leaves the receiver
                # untyped and lets same-named methods alias each other.  The
                # prev-token guard keeps `x = a & b` expressions out.
                prev = toks[k - 1].text if k > lo else ";"
                nxt = toks[k + 3].text if k + 3 < hi else ";"
                if prev in (";", "{", "}", "::", "const", "static") and \
                        nxt in (";", "=", "(", "{"):
                    fn.local_types.setdefault(toks[k + 2].text, t.text)
            elif t.text == ">" and k + 1 < hi and toks[k + 1].kind == "ident":
                # `std::unique_ptr<PipeLink> link = …` — walk back through
                # the angle group for the template argument's class.
                nxt = toks[k + 2].text if k + 2 < hi else ";"
                if nxt in (";", "=", "(", "{"):
                    j, depth = k, 0
                    while j >= lo:
                        depth += toks[j].text == ">"
                        depth -= toks[j].text == "<"
                        if depth == 0:
                            break
                        j -= 1
                    inner = _last_type_ident(toks[j + 1:k])
                    if inner:
                        fn.local_types.setdefault(toks[k + 1].text, inner)
            k += 1

    def _harvest_calls(self, fn: Function, lo: int, hi: int,
                       cls: Optional[ClassInfo]) -> None:
        toks = self.toks
        k = lo
        while k < hi:
            t = toks[k]
            if t.kind != "ident" or k + 1 >= hi or toks[k + 1].text != "(":
                k += 1
                continue
            if t.text in _CONTROL_KEYWORDS or t.text in _TYPE_HEADS:
                k += 1
                continue
            prev = toks[k - 1] if k > lo else None
            pt = prev.text if prev is not None else None
            call_end = _match(toks, k + 1, "(", ")")
            if pt in (".", "->"):
                recv = self._receiver_chain(lo, k - 1)
                call = self._make_call(t, "method", (), recv, k + 1, call_end)
            elif pt == "::":
                quals: list[str] = []
                j = k - 1
                while j > lo and toks[j].text == "::":
                    if j - 1 >= lo and toks[j - 1].kind == "ident":
                        quals.insert(0, toks[j - 1].text)
                        j -= 2
                    else:
                        quals.insert(0, "")  # leading `::` — global scope
                        break
                call = self._make_call(t, "qualified", tuple(quals), (),
                                       k + 1, call_end)
            elif prev is not None and (prev.kind == "ident" or pt in (">",)):
                # `Type name(args)` — a declaration, not a call.
                k = call_end
                continue
            else:
                call = self._make_call(t, "free", (), (), k + 1, call_end)
            fn.calls.append(call)
            k += 1  # descend into the argument list for nested calls

    def _receiver_chain(self, lo: int, dot: int) -> tuple[str, ...]:
        toks = self.toks
        chain: list[str] = []
        j = dot
        while j > lo and toks[j].text in (".", "->"):
            if toks[j - 1].kind == "ident":
                chain.insert(0, toks[j - 1].text)
                j -= 2
            elif toks[j - 1].text == ")":
                chain.insert(0, "()")  # call result: type unknown
                break
            else:
                break
        return tuple(chain)

    def _make_call(self, t: Tok, kind: str, quals: tuple[str, ...],
                   recv: tuple[str, ...], open_paren: int,
                   call_end: int) -> Call:
        args = self.toks[open_paren + 1:call_end - 1]
        nargs = _count_toplevel_commas(args)
        idents = frozenset(a.text for a in args if a.kind == "ident")
        name = t.text
        if kind == "free" and name in _MACRO_CALLS:
            kind = "qualified"
            quals, name = _MACRO_CALLS[name]
        return Call(name=name, line=t.line, nargs=nargs, kind=kind,
                    quals=quals, recv=recv, arg_idents=idents)


# Function-like macros that stand for one call, recorded as that call so
# every check sees one form.  AFS_FAULT_POINT(site) evaluates its site
# exactly as `fault::Hit(site)` does, plus an early return
# (src/common/faultpoint.hpp).
_MACRO_CALLS = {
    "AFS_FAULT_POINT": (("fault",), "Hit"),
}


def _count_toplevel_commas(toks: list[Tok]) -> int:
    if not toks:
        return 0
    depth = 0
    count = 1
    for t in toks:
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "," and depth == 0:
            count += 1
    return count


def _split_toplevel(toks: list[Tok]) -> Iterable[list[Tok]]:
    depth = 0
    group: list[Tok] = []
    for t in toks:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == "," and depth == 0:
            yield group
            group = []
        else:
            group.append(t)
    if group:
        yield group


_NOT_TYPES = {"const", "volatile", "unsigned", "signed", "long", "short",
              "int", "char", "bool", "float", "double", "void", "auto",
              "std", "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
              "int8_t", "int16_t", "int32_t", "int64_t"}


def _last_type_ident(toks: list[Tok]) -> Optional[str]:
    """Best-effort class name of a declaration's type tokens."""
    last = None
    for t in toks:
        if t.kind == "ident" and t.text not in _NOT_TYPES and \
                not t.text.startswith("AFS_"):
            last = t.text
    return last


# ---------------------------------------------------------------------------
# Whole-repo model


class Model:
    """All parsed files plus the cross-file indexes the checks query."""

    def __init__(self):
        self.files: list[FileModel] = []
        self.classes: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, list[Function]] = {}
        self.methods: dict[str, list[Function]] = {}   # name -> defns w/ cls
        self.derived: dict[str, list[str]] = {}        # base -> derived names
        self.sources: dict[str, SourceFile] = {}

    def add(self, path: str, text: str) -> FileModel:
        src = SourceFile(path, text)
        fm = FileModel(src)
        self.files.append(fm)
        self.sources[path] = src
        for c in fm.classes:
            self.classes.setdefault(c.name, []).append(c)
            for b in c.bases:
                self.derived.setdefault(b, []).append(c.name)
        for f in fm.functions:
            self.functions.setdefault(f.name, []).append(f)
            if f.cls:
                self.methods.setdefault(f.name, []).append(f)
        return fm

    # -- queries -----------------------------------------------------------

    def class_info(self, name: str) -> Optional[ClassInfo]:
        infos = self.classes.get(name)
        return infos[0] if infos else None

    def member_type(self, cls: str, member: str) -> Optional[str]:
        seen = set()
        stack = [cls]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            info = self.class_info(c)
            if info is None:
                continue
            m = info.member(member)
            if m is not None:
                return _strip_wrappers(m.type_name)
            stack.extend(info.bases)
        return None

    def resolve_receiver(self, fn: Function, recv: tuple[str, ...]) -> \
            Optional[str]:
        """Class name the receiver chain lands on, or None if unknown."""
        if not recv:
            return None
        head = recv[0]
        if head == "this":
            cur = fn.cls
        elif head == "()":
            return None
        elif head in fn.local_types:
            cur = _strip_wrappers(fn.local_types[head])
        elif fn.cls and self.member_type(fn.cls, head) is not None:
            cur = self.member_type(fn.cls, head)
        elif head in self.classes:
            cur = head  # static-ish access Class::member.Method()
        else:
            return None
        for link in recv[1:]:
            if cur is None:
                return None
            cur = self.member_type(cur, link)
        return cur

    def method_candidates(self, call: Call, fn: Function) -> list[Function]:
        """Definitions a method call may dispatch to (virtuals included)."""
        impls = self.methods.get(call.name, [])
        if not impls:
            return []
        cls = self.resolve_receiver(fn, call.recv)
        if cls is None:
            return impls
        family = {cls}
        stack = [cls]
        while stack:  # include overrides in derived classes (virtual calls)
            for d in self.derived.get(stack.pop(), []):
                if d not in family:
                    family.add(d)
                    stack.append(d)
        info = self.class_info(cls)
        seen_bases = set()
        stack = list(info.bases) if info else []
        while stack:  # and inherited implementations from bases
            b = stack.pop()
            if b in seen_bases:
                continue
            seen_bases.add(b)
            family.add(b)
            binfo = self.class_info(b)
            if binfo:
                stack.extend(binfo.bases)
        narrowed = [f for f in impls if f.cls in family]
        return narrowed if narrowed else impls

    def annotated_functions(self, annotation: str) -> list[Function]:
        """Definitions carrying `annotation` directly or via a declaration."""
        out = []
        for fns in self.functions.values():
            for f in fns:
                if annotation in f.annotations:
                    out.append(f)
                    continue
                if f.cls:
                    info = self.class_info(f.cls)
                    decl = info.method_decls.get(f.name) if info else None
                    if decl and annotation in decl.annotations:
                        out.append(f)
        return out


def _strip_wrappers(type_name: Optional[str]) -> Optional[str]:
    return type_name


# ---------------------------------------------------------------------------
# Loading


_SOURCE_EXTS = (".hpp", ".cpp", ".hh", ".cc", ".h")


def load_tree(root: str, subdirs: Iterable[str] = ("src",)) -> Model:
    model = Model()
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in sorted(os.walk(base)):
            for fname in sorted(filenames):
                if fname.endswith(_SOURCE_EXTS):
                    path = os.path.join(dirpath, fname)
                    with open(path, "r", encoding="utf-8",
                              errors="replace") as fh:
                        model.add(os.path.relpath(path, root), fh.read())
    return model


def load_files(root: str, paths: Iterable[str]) -> Model:
    model = Model()
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        with open(full, "r", encoding="utf-8", errors="replace") as fh:
            model.add(os.path.relpath(full, root), fh.read())
    return model
