"""The program corpus used by examples, tests and benchmarks.

Each entry is a named, parsed, validated program plus helpers to build
matching inputs.  ``inner_product`` is Figure 7 of the paper verbatim
(modulo surface syntax); the rest exercise the shipped facets the way
the paper's Section 1 motivates (signs, ranges, sizes) and give the
benchmarks scalable families.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.lang.parser import parse_program
from repro.lang.program import Program

#: Figure 7: inner product over the vector ADT.
INNER_PRODUCT_SRC = """
(define (iprod A B)
  (let ((n (vsize A)))
    (dotprod A B n)))

(define (dotprod A B n)
  (if (= n 0)
      0.0
      (+ (* (vref A n) (vref B n))
         (dotprod A B (- n 1)))))
"""

#: x^n by repeated squaring — the classic PE example; static exponent.
POWER_SRC = """
(define (power x n)
  (if (= n 0)
      1
      (if (= (mod n 2) 0)
          (square (power x (div n 2)))
          (* x (power x (- n 1))))))

(define (square y) (* y y))
"""

#: Sign-facet showcase: |x| piped through scaling; knowing only the
#: sign of the input folds every test away.
SIGN_PIPELINE_SRC = """
(define (normalize x scale)
  (if (< x 0)
      (neg (shrink (neg x) scale))
      (shrink x scale)))

(define (shrink x scale)
  (if (> x scale)
      (shrink (- x scale) scale)
      x))
"""

#: Interval-facet showcase: a table lookup whose bounds check dissolves
#: when the index range is known.
CLAMPED_LOOKUP_SRC = """
(define (lookup V i lo hi)
  (let ((j (clamp i lo hi)))
    (if (and (>= j 1) (<= j (vsize V)))
        (vref V j)
        -1.0)))

(define (clamp x lo hi) (max lo (min x hi)))
"""

#: Parity-facet showcase: alternating sum where the parity of the index
#: decides the branch.
ALTERNATING_SUM_SRC = """
(define (altsum V)
  (walk V (vsize V)))

(define (walk V n)
  (if (= n 0)
      0.0
      (if (= (mod n 2) 0)
          (+ (vref V n) (walk V (- n 1)))
          (- (walk V (- n 1)) (vref V n)))))
"""

#: Horner evaluation of a polynomial with a static coefficient count.
POLY_EVAL_SRC = """
(define (poly C x)
  (horner C x (vsize C) 0.0))

(define (horner C x n acc)
  (if (= n 0)
      acc
      (horner C x (- n 1) (+ (* acc x) (vref C n)))))
"""

#: gcd — fully static inputs collapse to a constant.
GCD_SRC = """
(define (gcd a b)
  (if (= b 0)
      a
      (gcd b (mod a b))))
"""

#: Naive fibonacci — for cache/variant stress.
FIB_SRC = """
(define (fib n)
  (if (<= n 1)
      n
      (+ (fib (- n 1)) (fib (- n 2)))))
"""

#: A small arithmetic-expression interpreter written in the object
#: language: programs are encoded as instruction vectors, which makes
#: the first Futamura projection runnable (specialize ``run`` on a
#: static code vector, dynamic input).  Opcodes: 0 halt-with-acc,
#: 1 add-constant, 2 mul-by-constant, 3 add-input, 4 negate.
MINI_VM_SRC = """
(define (run code x)
  (step code x (vsize code) 1 0.0))

(define (step code x n pc acc)
  (if (> pc n)
      acc
      (dispatch code x n pc acc (vref code pc))))

(define (dispatch code x n pc acc op)
  (if (= op 0.0)
      acc
      (if (= op 1.0)
          (step code x n (+ pc 2) (+ acc (vref code (+ pc 1))))
          (if (= op 2.0)
              (step code x n (+ pc 2) (* acc (vref code (+ pc 1))))
              (if (= op 3.0)
                  (step code x n (+ pc 1) (+ acc x))
                  (step code x n (+ pc 1) (neg acc)))))))
"""

#: Matrix-vector product with the matrix stored row-major in one
#: vector; static dimensions (carried by the Size facet on the flat
#: matrix and the input vector) unroll both loops completely.
MATVEC_SRC = """
(define (matvec M x out)
  (let ((n (vsize x)))
    (rows M x out (div (vsize M) n) n)))

(define (rows M x out i n)
  (if (= i 0)
      out
      (rows M x (updvec out i (dot M x i n n)) (- i 1) n)))

(define (dot M x i j n)
  (if (= j 0)
      0.0
      (+ (* (vref M (+ (* (- i 1) n) j)) (vref x j))
         (dot M x i (- j 1) n))))
"""

#: Binary search over a sorted vector of floats; with a static size the
#: probe sequence is static and the whole search tree unrolls.
BINARY_SEARCH_SRC = """
(define (bsearch V key)
  (walk V key 1 (vsize V)))

(define (walk V key lo hi)
  (if (> lo hi)
      0
      (let ((mid (div (+ lo hi) 2)))
        (if (= (vref V mid) key)
            mid
            (if (< (vref V mid) key)
                (walk V key (+ mid 1) hi)
                (walk V key lo (- mid 1)))))))
"""

#: Higher-order corpus entry: fold/compose pipeline for the Section 5.5
#: analysis.
HO_PIPELINE_SRC = """
(define (main V k)
  (let ((f (lambda (a) (* a k)))
        (g (lambda (a) (+ a 1.0))))
    (fold (compose f g) 0.0 V (vsize V))))

(define (compose f g)
  (lambda (a) (f (g a))))

(define (fold f acc V n)
  (if (= n 0)
      acc
      (fold f (f (+ acc (vref V n))) V (- n 1))))
"""

#: Higher-order: a conditional selecting between functions (exercises
#: T_C and Figure 6's advance application).
HO_SELECT_SRC = """
(define (main x flag)
  (let ((h (if flag
               (lambda (a) (+ a 1))
               (lambda (a) (* a 2)))))
    (h (h x))))
"""


@dataclass(frozen=True)
class Workload:
    """A named corpus entry."""

    name: str
    source: str
    description: str
    higher_order: bool = False

    def program(self) -> Program:
        return parse_program(self.source)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in [
        Workload("inner_product", INNER_PRODUCT_SRC,
                 "Figure 7: inner product over the vector ADT"),
        Workload("power", POWER_SRC,
                 "x^n by repeated squaring; classic static exponent"),
        Workload("sign_pipeline", SIGN_PIPELINE_SRC,
                 "sign-directed normalization (Sign facet showcase)"),
        Workload("clamped_lookup", CLAMPED_LOOKUP_SRC,
                 "bounds-checked lookup (Interval facet showcase)"),
        Workload("alternating_sum", ALTERNATING_SUM_SRC,
                 "parity-directed alternating sum (Parity facet)"),
        Workload("poly_eval", POLY_EVAL_SRC,
                 "Horner polynomial evaluation, static degree"),
        Workload("gcd", GCD_SRC, "Euclid's gcd"),
        Workload("fib", FIB_SRC, "naive Fibonacci"),
        Workload("mini_vm", MINI_VM_SRC,
                 "arithmetic VM; first Futamura projection target"),
        Workload("matvec", MATVEC_SRC,
                 "matrix-vector product, row-major flat matrix; "
                 "static dims unroll both loops"),
        Workload("binary_search", BINARY_SEARCH_SRC,
                 "binary search; static size unrolls the probe tree"),
        Workload("ho_pipeline", HO_PIPELINE_SRC,
                 "fold/compose pipeline (Section 5.5)",
                 higher_order=True),
        Workload("ho_select", HO_SELECT_SRC,
                 "function-valued conditional (T_C, Figure 6)",
                 higher_order=True),
    ]
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"no workload {name!r}; known: {known}") from None


def vm_program_square_plus(c: float) -> list[float]:
    """Mini-VM code computing ``(x + c) * x`` — add-input, add-constant
    c, mul is not expressible directly on x, so: acc = x + c then
    negate/mul tricks; kept simple: acc = ((0 + x) + c) * 2."""
    return [3.0, 1.0, c, 2.0, 2.0, 0.0]
