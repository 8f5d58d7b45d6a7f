(** The six PolyBench-C computation kernels evaluated in §7.1 (BICG, GEMM,
    GESUMMV, SYR2K, SYRK, TRMM), emitted as HLS-C source at any problem size
    and parsed through the ScaleHLS C front-end exactly as the paper's flow
    parses PolyBench sources. Loop structures follow PolyBench-4.2 (including
    the variable loop bounds of SYRK/SYR2K/TRMM and the imperfect nests that
    exercise loop perfectization). *)

type kernel = Bicg | Gemm | Gesummv | Syr2k | Syrk | Trmm | Atax | Mvt | Two_mm

(** The six kernels of the paper's Table 3. *)
let all = [ Bicg; Gemm; Gesummv; Syr2k; Syrk; Trmm ]

(** Extension kernels beyond the paper's set (same machinery, wider
    coverage). *)
let extras = [ Atax; Mvt; Two_mm ]

let name = function
  | Bicg -> "bicg"
  | Gemm -> "gemm"
  | Gesummv -> "gesummv"
  | Syr2k -> "syr2k"
  | Syrk -> "syrk"
  | Trmm -> "trmm"
  | Atax -> "atax"
  | Mvt -> "mvt"
  | Two_mm -> "two_mm"

let of_name s =
  match String.lowercase_ascii s with
  | "bicg" -> Bicg
  | "gemm" -> Gemm
  | "gesummv" -> Gesummv
  | "syr2k" -> Syr2k
  | "syrk" -> Syrk
  | "trmm" -> Trmm
  | "atax" -> Atax
  | "mvt" -> Mvt
  | "2mm" | "two_mm" -> Two_mm
  | _ ->
      invalid_arg
        (Printf.sprintf "unknown kernel %S (%s)" s
           (String.concat " | " (List.map name (all @ extras))))

(** HLS-C source of a kernel at problem size [n]. *)
let source kernel ~n =
  match kernel with
  | Gemm ->
      Printf.sprintf
        {|
void gemm(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      C[i][j] = C[i][j] * beta;
      for (int k = 0; k < %d; k++) {
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
      }
    }
  }
}
|}
        n n n n n n n n n
  | Bicg ->
      Printf.sprintf
        {|
void bicg(float A[%d][%d], float s[%d], float q[%d], float p[%d], float r[%d]) {
  for (int i = 0; i < %d; i++) {
    s[i] = 0.0;
  }
  for (int i = 0; i < %d; i++) {
    q[i] = 0.0;
    for (int j = 0; j < %d; j++) {
      s[j] = s[j] + r[i] * A[i][j];
      q[i] = q[i] + A[i][j] * p[j];
    }
  }
}
|}
        n n n n n n n n n
  | Gesummv ->
      Printf.sprintf
        {|
void gesummv(float alpha, float beta, float A[%d][%d], float B[%d][%d],
             float tmp[%d], float x[%d], float y[%d]) {
  for (int i = 0; i < %d; i++) {
    tmp[i] = 0.0;
    y[i] = 0.0;
    for (int j = 0; j < %d; j++) {
      tmp[i] = A[i][j] * x[j] + tmp[i];
      y[i] = B[i][j] * x[j] + y[i];
    }
    y[i] = alpha * tmp[i] + beta * y[i];
  }
}
|}
        n n n n n n n n n
  | Syrk ->
      Printf.sprintf
        {|
void syrk(float alpha, float beta, float C[%d][%d], float A[%d][%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j <= i; j++) {
      C[i][j] = C[i][j] * beta;
      for (int k = 0; k < %d; k++) {
        C[i][j] = C[i][j] + alpha * A[i][k] * A[j][k];
      }
    }
  }
}
|}
        n n n n n n
  | Syr2k ->
      Printf.sprintf
        {|
void syr2k(float alpha, float beta, float C[%d][%d], float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j <= i; j++) {
      C[i][j] = C[i][j] * beta;
      for (int k = 0; k < %d; k++) {
        C[i][j] = C[i][j] + A[j][k] * alpha * B[i][k] + B[j][k] * alpha * A[i][k];
      }
    }
  }
}
|}
        n n n n n n n n
  | Trmm ->
      Printf.sprintf
        {|
void trmm(float alpha, float A[%d][%d], float B[%d][%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      for (int k = i + 1; k < %d; k++) {
        B[i][j] = B[i][j] + A[k][i] * B[k][j];
      }
      B[i][j] = alpha * B[i][j];
    }
  }
}
|}
        n n n n n n n

  | Atax ->
      Printf.sprintf
        {|
void atax(float A[%d][%d], float x[%d], float y[%d], float tmp[%d]) {
  for (int i = 0; i < %d; i++) {
    y[i] = 0.0;
  }
  for (int i = 0; i < %d; i++) {
    tmp[i] = 0.0;
    for (int j = 0; j < %d; j++) {
      tmp[i] = tmp[i] + A[i][j] * x[j];
    }
    for (int j = 0; j < %d; j++) {
      y[j] = y[j] + A[i][j] * tmp[i];
    }
  }
}
|}
        n n n n n n n n n
  | Mvt ->
      Printf.sprintf
        {|
void mvt(float A[%d][%d], float x1[%d], float x2[%d], float y1[%d], float y2[%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      x1[i] = x1[i] + A[i][j] * y1[j];
    }
  }
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      x2[i] = x2[i] + A[j][i] * y2[j];
    }
  }
}
|}
        n n n n n n n n n n
  | Two_mm ->
      Printf.sprintf
        {|
void two_mm(float alpha, float beta, float tmp[%d][%d], float A[%d][%d],
            float B[%d][%d], float C[%d][%d], float D[%d][%d]) {
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      tmp[i][j] = 0.0;
      for (int k = 0; k < %d; k++) {
        tmp[i][j] = tmp[i][j] + alpha * A[i][k] * B[k][j];
      }
    }
  }
  for (int i = 0; i < %d; i++) {
    for (int j = 0; j < %d; j++) {
      D[i][j] = D[i][j] * beta;
      for (int k = 0; k < %d; k++) {
        D[i][j] = D[i][j] + tmp[i][k] * C[k][j];
      }
    }
  }
}
|}
        n n n n n n n n n n n n n n n n

(** Argument shapes of a kernel at size [n]: scalars are [None], arrays
    [Some dims] — used by the test/bench harnesses to build interpreter
    inputs. *)
let arg_shapes kernel ~n =
  match kernel with
  | Gemm -> [ None; None; Some [ n; n ]; Some [ n; n ]; Some [ n; n ] ]
  | Bicg -> [ Some [ n; n ]; Some [ n ]; Some [ n ]; Some [ n ]; Some [ n ] ]
  | Gesummv ->
      [ None; None; Some [ n; n ]; Some [ n; n ]; Some [ n ]; Some [ n ]; Some [ n ] ]
  | Syrk -> [ None; None; Some [ n; n ]; Some [ n; n ] ]
  | Syr2k -> [ None; None; Some [ n; n ]; Some [ n; n ]; Some [ n; n ] ]
  | Trmm -> [ None; Some [ n; n ]; Some [ n; n ] ]
  | Atax -> [ Some [ n; n ]; Some [ n ]; Some [ n ]; Some [ n ] ]
  | Mvt -> [ Some [ n; n ]; Some [ n ]; Some [ n ]; Some [ n ]; Some [ n ] ]
  | Two_mm ->
      [ None; None; Some [ n; n ]; Some [ n; n ]; Some [ n; n ]; Some [ n; n ]; Some [ n; n ] ]

(** Multiply–accumulate operation count (2 OP per MAC) for reference. *)
let flops kernel ~n =
  match kernel with
  | Gemm -> 2 * n * n * n
  | Bicg -> 4 * n * n
  | Gesummv -> 4 * n * n
  | Syrk -> n * n * n (* triangular *)
  | Syr2k -> 2 * n * n * n
  | Trmm -> n * n * n
  | Atax -> 4 * n * n
  | Mvt -> 4 * n * n
  | Two_mm -> 4 * n * n * n

(** Argument names (paper Table 3 uses these for partition-factor columns). *)
let arg_names = function
  | Gemm -> [ "alpha"; "beta"; "C"; "A"; "B" ]
  | Bicg -> [ "A"; "s"; "q"; "p"; "r" ]
  | Gesummv -> [ "alpha"; "beta"; "A"; "B"; "tmp"; "x"; "y" ]
  | Syrk -> [ "alpha"; "beta"; "C"; "A" ]
  | Syr2k -> [ "alpha"; "beta"; "C"; "A"; "B" ]
  | Trmm -> [ "alpha"; "A"; "B" ]
  | Atax -> [ "A"; "x"; "y"; "tmp" ]
  | Mvt -> [ "A"; "x1"; "x2"; "y1"; "y2" ]
  | Two_mm -> [ "alpha"; "beta"; "tmp"; "A"; "B"; "C"; "D" ]
