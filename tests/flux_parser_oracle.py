"""Reference oracle for flux expressions.

The hand-written front end that ``FluxFunction.from_expression`` used
before it read expressions with Python's ``ast``: a tokenizer, a
recursive-descent parser into tuple nodes, the recursive tree
interpreter ``evaluate`` and the symbolic derivative ``diff``.  The
agreement test compares accept/reject, values, types and the sign of
zero of a and a' against ``conslaw._flux_functions``.

Grammar: expr = term (("+" | "-") term)*, term = factor (("*" | "/")
factor)*, factor = ("+" | "-") factor | power, power = atom ("^"
factor)? with a constant exponent, atom = "(" expr ")" | "v" | number.
Unary minus is the node 0.0 - x.
"""


def tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(ch)
            i += 1
            continue
        if ch == "v":
            tokens.append("v")
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(float(text[i:j]))
            i = j
            continue
        raise ValueError("unexpected character %r in flux expression" % ch)
    return tokens


def parse_flux_expression(text):
    tokens = tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError("malformed flux expression %r" % text)
        pos[0] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = (("add" if op == "+" else "sub"), node, rhs)
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = (("mul" if op == "*" else "div"), node, rhs)
        return node

    def parse_factor():
        tok = peek()
        if tok == "+":
            take()
            return parse_factor()
        if tok == "-":
            take()
            return ("sub", ("num", 0.0), parse_factor())
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            expo = parse_factor()
            if expo[0] != "num":
                raise ValueError("exponent must be a constant in %r" % text)
            return ("pow", base, expo)
        return base

    def parse_atom():
        tok = peek()
        if tok == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        if tok == "v":
            take()
            return ("var",)
        if isinstance(tok, float):
            take()
            return ("num", tok)
        raise ValueError("malformed flux expression %r" % text)

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ValueError("trailing input in flux expression %r" % text)
    return node


def evaluate(node, v):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return v
    if kind == "add":
        return evaluate(node[1], v) + evaluate(node[2], v)
    if kind == "sub":
        return evaluate(node[1], v) - evaluate(node[2], v)
    if kind == "mul":
        return evaluate(node[1], v) * evaluate(node[2], v)
    if kind == "div":
        return evaluate(node[1], v) / evaluate(node[2], v)
    if kind == "pow":
        return evaluate(node[1], v) ** node[2][1]
    raise ValueError("bad node %r" % (node,))


def diff(node):
    kind = node[0]
    if kind in ("num",):
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0)
    if kind == "add":
        return ("add", diff(node[1]), diff(node[2]))
    if kind == "sub":
        return ("sub", diff(node[1]), diff(node[2]))
    if kind == "mul":
        return ("add", ("mul", diff(node[1]), node[2]), ("mul", node[1], diff(node[2])))
    if kind == "div":
        num = ("sub", ("mul", diff(node[1]), node[2]), ("mul", node[1], diff(node[2])))
        return ("div", num, ("mul", node[2], node[2]))
    if kind == "pow":
        c = node[2][1]
        inner = ("mul", ("num", c), ("pow", node[1], ("num", c - 1.0)))
        return ("mul", inner, diff(node[1]))
    raise ValueError("bad node %r" % (node,))
