open Rx_util

(* Header page layout: 16 u32 first_data_page; 20 u32 last_data_page;
   24 u64 record_count; 32 u64 overflow_page_count.
   Data-page cells: tag byte 0 = inline payload, 1 = overflow stub
   (u32 first overflow page, u32 total length).
   Overflow pages: 16 u32 next; 20 u16 chunk length; data from 22. *)

(* sync: all mutation happens on the writer path, serialized by the table
   X lock / database write lock. Reader domains only probe [free_map] with
   [Hashtbl.mem] (prefetch filtering), and the lock manager keeps S-locked
   scans from overlapping an X-locked writer on the same table, so the
   table is never resized under a reader. *)
type t = {
  pool : Buffer_pool.t;
  header : int;
  free_map : (int, int) Hashtbl.t; (* data page -> cached free bytes *)
  mutable last_page : int;
  mutable readahead : int; (* max pages per readahead batch; <= 1 disables *)
}

let default_readahead = 8
let set_readahead t n = t.readahead <- n
let readahead t = t.readahead

(* Data pages are appended to the chain in allocation order, so the pages
   following [page_no] numerically are (mostly) the pages a chain walk will
   visit next. Prefetch the window ahead of [page_no], filtered to pages this
   heap actually owns (the free map holds exactly the data pages). *)
let prefetch_window t page_no =
  if t.readahead > 1 && not (Buffer_pool.cached t.pool page_no) then begin
    let pages = ref [] in
    for p = page_no + t.readahead - 1 downto page_no do
      if p = page_no || Hashtbl.mem t.free_map p then pages := p :: !pages
    done;
    Buffer_pool.prefetch t.pool !pages
  end

let u32_get page off =
  (Char.code (Bytes.get page off) lsl 24)
  lor (Char.code (Bytes.get page (off + 1)) lsl 16)
  lor (Char.code (Bytes.get page (off + 2)) lsl 8)
  lor Char.code (Bytes.get page (off + 3))

let u32_set page off v =
  Bytes.set page off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set page (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set page (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set page (off + 3) (Char.chr (v land 0xff))

let hdr_first page = u32_get page 16
let hdr_set_first page v = u32_set page 16 v
let hdr_last page = u32_get page 20
let hdr_set_last page v = u32_set page 20 v
let hdr_count page = Int64.to_int (Bytes.get_int64_be page 24)
let hdr_set_count page v = Bytes.set_int64_be page 24 (Int64.of_int v)
let hdr_ovf page = Int64.to_int (Bytes.get_int64_be page 32)
let hdr_set_ovf page v = Bytes.set_int64_be page 32 (Int64.of_int v)
let hdr_free_ovf page = u32_get page 40
let hdr_set_free_ovf page v = u32_set page 40 v

let new_data_page pool =
  let page_no = Buffer_pool.alloc pool Page.Heap in
  Buffer_pool.update pool page_no Slotted_page.init;
  page_no

let create pool =
  let header = Buffer_pool.alloc pool Page.Meta in
  let first = new_data_page pool in
  Buffer_pool.update pool header (fun page ->
      hdr_set_first page first;
      hdr_set_last page first;
      hdr_set_count page 0;
      hdr_set_ovf page 0);
  let t =
    {
      pool;
      header;
      free_map = Hashtbl.create 64;
      last_page = first;
      readahead = default_readahead;
    }
  in
  Hashtbl.replace t.free_map first
    (Buffer_pool.with_page pool first Slotted_page.free_space);
  t

let attach pool ~header_page =
  let first, last =
    Buffer_pool.with_page pool header_page (fun page ->
        (hdr_first page, hdr_last page))
  in
  let t =
    {
      pool;
      header = header_page;
      free_map = Hashtbl.create 64;
      last_page = last;
      readahead = default_readahead;
    }
  in
  (* Rebuild the free-space map by walking the page chain. *)
  let rec walk page_no =
    if page_no <> 0 then begin
      let free, next =
        Buffer_pool.with_page pool page_no (fun page ->
            (Slotted_page.free_space page, Slotted_page.next_page page))
      in
      Hashtbl.replace t.free_map page_no free;
      walk next
    end
  in
  walk first;
  t

let header_page t = t.header

let record_count t =
  Buffer_pool.with_page t.pool t.header hdr_count

let bump_count t delta =
  Buffer_pool.update t.pool t.header (fun page ->
      hdr_set_count page (hdr_count page + delta))

let data_pages t = Hashtbl.length t.free_map

let overflow_pages t = Buffer_pool.with_page t.pool t.header hdr_ovf

(* Append a fresh data page to the chain and register it in the free map. *)
let extend_chain t =
  let fresh = new_data_page t.pool in
  Buffer_pool.update t.pool t.last_page (fun page ->
      Slotted_page.set_next_page page fresh);
  Buffer_pool.update t.pool t.header (fun page -> hdr_set_last page fresh);
  Hashtbl.replace t.free_map fresh
    (Buffer_pool.with_page t.pool fresh Slotted_page.free_space);
  t.last_page <- fresh;
  fresh

(* Choose a data page with at least [need] free bytes; extend the chain if
   none qualifies. *)
let page_for t need =
  let found = ref None in
  (try
     Hashtbl.iter
       (fun page_no free ->
         if free >= need then begin
           found := Some page_no;
           raise Exit
         end)
       t.free_map
   with Exit -> ());
  match !found with Some p -> p | None -> extend_chain t

let overflow_chunk_capacity t = Buffer_pool.page_size t.pool - 22

(* Pop a page from the overflow free list, or allocate a fresh one. *)
let alloc_overflow_page t =
  let head = Buffer_pool.with_page t.pool t.header hdr_free_ovf in
  if head = 0 then Buffer_pool.alloc t.pool Page.Heap_overflow
  else begin
    let next = Buffer_pool.with_page t.pool head (fun page -> u32_get page 16) in
    Buffer_pool.update t.pool t.header (fun page -> hdr_set_free_ovf page next);
    head
  end

(* Store [payload] in a chain of overflow pages, returning the first page. *)
let write_overflow t payload =
  let cap = overflow_chunk_capacity t in
  let len = String.length payload in
  let n_chunks = (len + cap - 1) / cap in
  let pages = Array.init n_chunks (fun _ -> alloc_overflow_page t) in
  Array.iteri
    (fun i page_no ->
      let off = i * cap in
      let chunk_len = min cap (len - off) in
      let next = if i + 1 < n_chunks then pages.(i + 1) else 0 in
      Buffer_pool.update t.pool page_no (fun page ->
          u32_set page 16 next;
          Bytes.set page 20 (Char.chr ((chunk_len lsr 8) land 0xff));
          Bytes.set page 21 (Char.chr (chunk_len land 0xff));
          Bytes.blit_string payload off page 22 chunk_len))
    pages;
  Buffer_pool.update t.pool t.header (fun page ->
      hdr_set_ovf page (hdr_ovf page + n_chunks));
  pages.(0)

let read_overflow t first total_len =
  let buf = Bytes.create total_len in
  let rec loop page_no pos =
    if page_no <> 0 then begin
      let next, chunk_len =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let next = u32_get page 16 in
            let chunk_len =
              (Char.code (Bytes.get page 20) lsl 8) lor Char.code (Bytes.get page 21)
            in
            Bytes.blit page 22 buf pos chunk_len;
            (next, chunk_len))
      in
      loop next (pos + chunk_len)
    end
  in
  loop first 0;
  Bytes.to_string buf

let free_overflow t first =
  (* recycle the whole chain onto the header's free list *)
  let rec walk page_no acc last =
    if page_no = 0 then (acc, last)
    else
      let next = Buffer_pool.with_page t.pool page_no (fun page -> u32_get page 16) in
      walk next (acc + 1) page_no
  in
  let n, last = walk first 0 0 in
  if n > 0 then begin
    let old_head = Buffer_pool.with_page t.pool t.header hdr_free_ovf in
    Buffer_pool.update t.pool last (fun page -> u32_set page 16 old_head);
    Buffer_pool.update t.pool t.header (fun page ->
        hdr_set_free_ovf page first;
        hdr_set_ovf page (hdr_ovf page - n))
  end

let encode_cell t payload =
  let max_inline = Slotted_page.max_record_size ~page_size:(Buffer_pool.page_size t.pool) - 1 in
  if String.length payload <= max_inline then "\x00" ^ payload
  else begin
    let first = write_overflow t payload in
    let w = Bytes_io.Writer.create ~capacity:9 () in
    Bytes_io.Writer.u8 w 1;
    Bytes_io.Writer.u32 w first;
    Bytes_io.Writer.u32 w (String.length payload);
    Bytes_io.Writer.contents w
  end

(* Hands a cell's record to [f] as [(s, off, len)]: for an inline payload
   [s] is the pinned page image itself (no copy), for an overflow stub the
   reassembled chain. Must be called with the page pinned. *)
let cell_view t page ~off ~len f =
  match Bytes.get page off with
  | '\x00' -> f (Bytes.unsafe_to_string page) (off + 1) (len - 1)
  | '\x01' ->
      let s = read_overflow t (u32_get page (off + 1)) (u32_get page (off + 5)) in
      f s 0 (String.length s)
  | _ -> invalid_arg "Heap_file: corrupt cell tag"

(* the record as a string of its own: one copy for an inline payload, none
   beyond the reassembly buffer for an overflow chain *)
let copy_out s off len = if off = 0 && len = String.length s then s else String.sub s off len

let refresh_free t page_no page =
  Hashtbl.replace t.free_map page_no (Slotted_page.free_space page)

let insert t payload =
  let cell = encode_cell t payload in
  let need = String.length cell in
  let rec try_insert attempts =
    let page_no = page_for t need in
    let slot =
      Buffer_pool.update t.pool page_no (fun page ->
          let slot = Slotted_page.insert page cell in
          refresh_free t page_no page;
          slot)
    in
    match slot with
    | Some slot -> Rid.make ~page:page_no ~slot
    | None ->
        (* cached free space was stale; retry with the map corrected *)
        if attempts > Hashtbl.length t.free_map + 1 then
          failwith "Heap_file.insert: cannot place record"
        else try_insert (attempts + 1)
  in
  let rid = try_insert 0 in
  bump_count t 1;
  rid

let insert_many t payloads =
  match payloads with
  | [] -> []
  | _ ->
      (* Encode first: overflow chains are written as a side effect here,
         before any data-page placement. *)
      let cells = List.map (fun p -> encode_cell t p) payloads in
      let rids = ref [] in
      (* Fill one page at a time under a single [Buffer_pool.update]:
         consecutive cells land on the same page until it rejects one, so
         the free-space map is probed once per page transition instead of
         once per record. *)
      let rec place page_no cells =
        match cells with
        | [] -> ()
        | _ :: _ ->
            let rest =
              Buffer_pool.update t.pool page_no (fun page ->
                  let rec fill = function
                    | [] -> []
                    | cell :: tl as l -> (
                        match Slotted_page.insert page cell with
                        | Some slot ->
                            rids := Rid.make ~page:page_no ~slot :: !rids;
                            fill tl
                        | None -> l)
                  in
                  let rest = fill cells in
                  refresh_free t page_no page;
                  rest)
            in
            (match rest with
            | [] -> ()
            | cell :: _ ->
                let next = page_for t (String.length cell) in
                (* a page that just rejected this cell can still win the
                   free-map probe on stale arithmetic; force fresh space *)
                let next = if next = page_no then extend_chain t else next in
                place next rest)
      in
      place (page_for t (String.length (List.hd cells))) cells;
      bump_count t (List.length payloads);
      List.rev !rids

let with_record t (rid : Rid.t) f =
  prefetch_window t rid.Rid.page;
  Buffer_pool.with_page t.pool rid.Rid.page (fun page ->
      match Slotted_page.get_view page rid.Rid.slot with
      | None ->
          invalid_arg
            (Printf.sprintf "Heap_file.read: no record at %s" (Rid.to_string rid))
      | Some (off, len) -> cell_view t page ~off ~len f)

let read t rid = with_record t rid copy_out

let delete t (rid : Rid.t) =
  let cell =
    Buffer_pool.update t.pool rid.Rid.page (fun page ->
        let cell = Slotted_page.get page rid.Rid.slot in
        (match cell with
        | Some _ ->
            Slotted_page.delete page rid.Rid.slot;
            refresh_free t rid.Rid.page page
        | None -> ());
        cell)
  in
  match cell with
  | None -> invalid_arg (Printf.sprintf "Heap_file.delete: no record at %s" (Rid.to_string rid))
  | Some cell ->
      if cell.[0] = '\x01' then begin
        let r = Bytes_io.Reader.of_string ~pos:1 cell in
        free_overflow t (Bytes_io.Reader.u32 r)
      end;
      bump_count t (-1)

let update t (rid : Rid.t) payload =
  (* Fast path: inline record updated in place on its page. *)
  let max_inline =
    Slotted_page.max_record_size ~page_size:(Buffer_pool.page_size t.pool) - 1
  in
  if String.length payload <= max_inline then begin
    let old_cell, ok =
      Buffer_pool.update t.pool rid.Rid.page (fun page ->
          match Slotted_page.get page rid.Rid.slot with
          | None ->
              invalid_arg
                (Printf.sprintf "Heap_file.update: no record at %s" (Rid.to_string rid))
          | Some old ->
              let ok = Slotted_page.update page rid.Rid.slot ("\x00" ^ payload) in
              if ok then refresh_free t rid.Rid.page page;
              (old, ok))
    in
    if ok then begin
      if old_cell.[0] = '\x01' then begin
        let r = Bytes_io.Reader.of_string ~pos:1 old_cell in
        free_overflow t (Bytes_io.Reader.u32 r)
      end;
      rid
    end
    else begin
      delete t rid;
      insert t payload
    end
  end
  else begin
    delete t rid;
    insert t payload
  end

let iter f t =
  let first = Buffer_pool.with_page t.pool t.header hdr_first in
  let rec walk page_no =
    if page_no <> 0 then begin
      prefetch_window t page_no;
      (* materialize payloads (one copy, straight off the pinned image)
         before invoking [f], which may itself touch the pool *)
      let records = ref [] in
      let next =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let n = Slotted_page.slot_count page in
            for slot = n - 1 downto 0 do
              match Slotted_page.get_view page slot with
              | None -> ()
              | Some (off, len) ->
                  records := (slot, cell_view t page ~off ~len copy_out) :: !records
            done;
            Slotted_page.next_page page)
      in
      List.iter
        (fun (slot, record) -> f (Rid.make ~page:page_no ~slot) record)
        !records;
      walk next
    end
  in
  walk first
