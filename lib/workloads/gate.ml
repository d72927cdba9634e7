(** Baseline gates: compare measured numbers with the bounds committed in
    a baseline JSON (bench/BASELINE.json).  A gate is a table of rows; each
    row names the key path of its bound, whether the measurement must stay
    at or below it ([Max]) or at or above it ([Min]), and the measurement.
    A NaN measurement fails both directions.  Exit rule shared by every
    caller: 2 when the baseline is unreadable, bad JSON or lacks a key, 1
    when a bound is violated. *)

type dir = Max | Min

type row = { key : string list; dir : dir; measured : float; label : string }

type checked = { row : row; bound : float; pass : bool }

type verdict = Checked of checked list | Bad_baseline of string

let key_name row = String.concat "." row.key

let lookup doc row =
  let open Report.Json in
  List.fold_left (fun v k -> Option.bind v (member k)) (Some doc) row.key
  |> Fun.flip Option.bind to_number_opt

let cmp row = match row.dir with Max -> "<=" | Min -> ">="

let judge row bound =
  let pass =
    match row.dir with
    | Max -> row.measured <= bound
    | Min -> row.measured >= bound
  in
  { row; bound; pass }

(* [None] when no baseline was given: nothing is read or printed. *)
let check ?baseline rows =
  Option.map
    (fun baseline ->
      let verdict =
        match Report.Json.of_file baseline with
        | exception Sys_error e ->
            Bad_baseline
              (Printf.sprintf "baseline %s unreadable: %s" baseline e)
        | exception Report.Json.Parse_error e ->
            Bad_baseline (Printf.sprintf "baseline %s: bad JSON: %s" baseline e)
        | doc -> (
            let bounds = List.map (fun row -> (row, lookup doc row)) rows in
            match List.find_opt (fun (_, b) -> b = None) bounds with
            | Some (row, _) ->
                Bad_baseline
                  (Printf.sprintf "baseline %s has no %s" baseline
                     (key_name row))
            | None ->
                Checked
                  (List.map (fun (row, b) -> judge row (Option.get b)) bounds))
      in
      (match verdict with
      | Bad_baseline msg -> prerr_endline msg
      | Checked cs ->
          List.iter
            (fun c ->
              Printf.printf "gate %-4s %s = %g, %s %s %g\n"
                (if c.pass then "ok" else "FAIL")
                c.row.label c.row.measured (key_name c.row) (cmp c.row)
                c.bound)
            cs);
      verdict)
    baseline

let ok = function
  | Bad_baseline _ -> false
  | Checked cs -> List.for_all (fun c -> c.pass) cs

let to_json verdict =
  let open Report.Json in
  let row_json c =
    Obj
      [
        ("key", String (key_name c.row));
        ("label", String c.row.label);
        ("cmp", String (cmp c.row));
        ("measured", Float c.row.measured);
        ("bound", Float c.bound);
        ("pass", Bool c.pass);
      ]
  in
  match verdict with
  | None -> Null
  | Some (Bad_baseline msg) -> Obj [ ("ok", Bool false); ("error", String msg) ]
  | Some (Checked cs as v) ->
      Obj [ ("ok", Bool (ok v)); ("rows", List (List.map row_json cs)) ]

let exit_if_failed = function
  | Some (Bad_baseline _) -> exit 2
  | Some v when not (ok v) -> exit 1
  | _ -> ()
